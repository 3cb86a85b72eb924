package colorsql

import (
	"fmt"
	"strconv"
	"strings"

	"repro/internal/vec"
)

// This file renders a parsed Statement back to source. The contract,
// enforced by FuzzParseStatement, is an exact round trip: for any
// accepted statement st, ParseStatement(st.String()) succeeds and
// yields a deeply equal Statement. Three properties make that exact
// rather than approximate:
//
//   - numbers print with strconv.FormatFloat 'g'/-1, the shortest
//     form that re-parses to the identical float64;
//   - halfspaces are stored un-normalized (vec.NewHalfspace keeps the
//     coefficients as compiled), and the compiler's arithmetic on the
//     rendered form — coefficient times variable, summed — reproduces
//     each coefficient bit for bit;
//   - the WHERE clause is rendered directly in DNF, parenthesized per
//     clause, and DNF expansion of a DNF-shaped input is the identity.
//
// Rendering uses the canonical u/g/r/i/z axis names, so statements
// parsed through aliases (dered_r) re-parse equal in structure with
// canonical predicate spelling; projection columns keep their written
// names.

// axisNames are the canonical SDSS band names for the five magnitude
// axes, matching DefaultVars.
var axisNames = [...]string{"u", "g", "r", "i", "z"}

func axisName(axis int) string {
	if axis >= 0 && axis < len(axisNames) {
		return axisNames[axis]
	}
	// Out-of-schema axes only arise with a non-default vars mapping;
	// the rendered name is then not re-parseable, which is fine — the
	// round-trip contract covers the served 5-band schema.
	return fmt.Sprintf("m%d", axis)
}

// formatFloat prints v in the shortest form that parses back to
// exactly v.
func formatFloat(v float64) string {
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// appendLinear renders coeffs·x + k as a sum of terms the parser's
// constant-folding maps back to exactly these values. Zero
// coefficients are omitted; a zero constant is omitted unless the
// expression would otherwise be empty.
func appendLinear(b *strings.Builder, coeffs []float64, k float64) {
	wrote := false
	term := func(s string) {
		if wrote {
			b.WriteString(" + ")
		}
		b.WriteString(s)
		wrote = true
	}
	for axis, c := range coeffs {
		switch c {
		case 0:
			// Omitted: the parser leaves absent axes at exactly 0.
		case 1:
			term(axisName(axis))
		default:
			// "c*u" compiles as scale(c) of the unit axis vector — the
			// product c*1 is exact for every float c.
			term(formatFloat(c) + "*" + axisName(axis))
		}
	}
	if k != 0 || !wrote {
		term(formatFloat(k))
	}
}

// halfspaceString renders {x : A·x < B} as "A·x < B". The strict
// comparison is faithful: the lexer collapses <= to < by design.
func halfspaceString(b *strings.Builder, h vec.Halfspace) {
	appendLinear(b, h.A, 0)
	b.WriteString(" < ")
	b.WriteString(formatFloat(h.B))
}

// String renders the union as DNF source: OR of parenthesized AND
// clauses.
func (u Union) String() string {
	var b strings.Builder
	for i, poly := range u.Polys {
		if i > 0 {
			b.WriteString(" OR ")
		}
		b.WriteString("(")
		for j, h := range poly.Planes {
			if j > 0 {
				b.WriteString(" AND ")
			}
			halfspaceString(&b, h)
		}
		b.WriteString(")")
	}
	return b.String()
}

// String renders the statement back to parseable source. See the file
// comment for the exact round-trip contract.
func (s Statement) String() string {
	var b strings.Builder
	b.WriteString("SELECT ")
	if s.Star {
		b.WriteString("*")
	} else {
		for i, c := range s.Cols {
			if i > 0 {
				b.WriteString(", ")
			}
			b.WriteString(c.Name)
		}
	}
	if s.Reference {
		b.WriteString(" FROM reference")
	}
	if s.HasWhere {
		b.WriteString(" WHERE ")
		b.WriteString(s.Where.String())
	}
	if o := s.Order; o != nil {
		b.WriteString(" ORDER BY ")
		if o.Dist != nil {
			b.WriteString("dist(")
			for i, v := range o.Dist {
				if i > 0 {
					b.WriteString(", ")
				}
				b.WriteString(formatFloat(v))
			}
			b.WriteString(")")
		} else {
			appendLinear(&b, o.Coeffs, o.K)
		}
		if o.Desc {
			b.WriteString(" DESC")
		}
	}
	if s.Limit >= 0 {
		fmt.Fprintf(&b, " LIMIT %d", s.Limit)
	}
	return b.String()
}

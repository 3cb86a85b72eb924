package colorsql

import (
	"fmt"
	"math"
	"strings"

	"repro/internal/vec"
)

// This file grows the WHERE-clause fragment into full statements —
// the interactive-exploration shape of the paper's workload, where a
// user wants the first rows of a selective question fast:
//
//	SELECT <cols|*> [WHERE <pred>] [ORDER BY <expr|dist(...)> [ASC|DESC]] [LIMIT n]
//	SELECT * FROM reference ORDER BY dist(...) LIMIT k
//
// The projection list names magnitude columns (through the same
// variable mapping the predicates use) plus the identity columns
// objid, ra, dec, redshift and class. ORDER BY takes either a linear
// expression over the magnitudes or dist(m1,...,mD), distance to a
// reference point — the ordering kNN serves. A bare predicate with
// no SELECT keyword still parses, as SELECT * WHERE <pred>.

// ColumnKind classifies a projected column.
type ColumnKind int

// Projection column kinds.
const (
	ColMag ColumnKind = iota
	ColObjID
	ColRa
	ColDec
	ColRedshift
	ColClass
)

// Column is one entry of a statement's projection list.
type Column struct {
	// Name is the column as written in the query (used as the output
	// field name).
	Name string
	Kind ColumnKind
	// Axis is the magnitude axis for ColMag columns, -1 otherwise.
	Axis int
}

// OrderBy is the statement's ordering: exactly one of Dist (distance
// to a reference point, the kNN ordering) or Coeffs/K (a linear
// expression over the magnitudes) is set.
type OrderBy struct {
	Desc bool
	// Dist, when non-nil, orders by Euclidean distance to this point.
	Dist vec.Point
	// Coeffs/K order by the linear form Coeffs·mags + K.
	Coeffs vec.Point
	K      float64
}

// Key evaluates the ordering key for one magnitude vector, ignoring
// Desc (the consumer's comparator applies the direction). Distance
// orderings use squared distance — monotonic in the true distance
// and cheaper per row.
func (o *OrderBy) Key(mags []float64) float64 {
	if o.Dist != nil {
		var s float64
		for i, v := range o.Dist {
			d := mags[i] - v
			s += d * d
		}
		return s
	}
	s := o.K
	for i, c := range o.Coeffs {
		s += c * mags[i]
	}
	return s
}

// Statement is a parsed SELECT.
type Statement struct {
	// Star is true for SELECT *; otherwise Cols lists the projection.
	Star bool
	Cols []Column
	// Where is the compiled predicate union; HasWhere distinguishes a
	// missing WHERE clause (match everything) from an empty one.
	Where    Union
	HasWhere bool
	Order    *OrderBy
	// Limit is the row cap, -1 when absent. LIMIT 0 is valid and
	// returns no rows.
	Limit int
	// Reference marks the kNN over the photo-z reference set (its
	// spectroscopic rows) instead of the catalog; FROM reference parses
	// in that one shape only.
	Reference bool
}

// StarColumns is the canonical expansion of SELECT * in projection
// order: identity, the five magnitudes, position, redshift, class.
func StarColumns() []Column {
	return []Column{
		{Name: "objid", Kind: ColObjID, Axis: -1},
		{Name: "u", Kind: ColMag, Axis: 0},
		{Name: "g", Kind: ColMag, Axis: 1},
		{Name: "r", Kind: ColMag, Axis: 2},
		{Name: "i", Kind: ColMag, Axis: 3},
		{Name: "z", Kind: ColMag, Axis: 4},
		{Name: "ra", Kind: ColRa, Axis: -1},
		{Name: "dec", Kind: ColDec, Axis: -1},
		{Name: "redshift", Kind: ColRedshift, Axis: -1},
		{Name: "class", Kind: ColClass, Axis: -1},
	}
}

// OutputColumns resolves the statement's projection: Cols, or the
// star expansion.
func (s *Statement) OutputColumns() []Column {
	if s.Star {
		return StarColumns()
	}
	return s.Cols
}

// IsKNN reports whether the statement is a nearest-neighbour search:
// an ascending distance ordering with a row budget and no predicate.
func (s *Statement) IsKNN() bool {
	o := s.Order
	return o != nil && o.Dist != nil && !o.Desc && !s.HasWhere && s.Limit > 0
}

// ParseStatement parses a full SELECT statement, or — preserving the
// original entry point's contract — a bare WHERE-clause predicate,
// which is treated as SELECT * WHERE <pred>.
func ParseStatement(src string, vars map[string]int, dim int) (Statement, error) {
	toks, err := lex(src)
	if err != nil {
		return Statement{}, err
	}
	p := &parser{toks: toks, vars: vars, dim: dim}
	if !p.peekKeyword("SELECT") {
		u, err := p.parseUnion()
		if err != nil {
			return Statement{}, err
		}
		if p.peek().kind != tokEOF {
			return Statement{}, fmt.Errorf("colorsql: trailing input at %v", p.peek())
		}
		return Statement{Star: true, Where: u, HasWhere: true, Limit: -1}, nil
	}
	p.next()
	st := Statement{Limit: -1}

	// Projection list.
	if p.peek().kind == tokStar {
		p.next()
		st.Star = true
	} else {
		for {
			t := p.next()
			if t.kind != tokIdent {
				return Statement{}, fmt.Errorf("colorsql: expected column name at position %d, found %v", t.pos, t)
			}
			col, err := resolveColumn(t, vars, dim)
			if err != nil {
				return Statement{}, err
			}
			st.Cols = append(st.Cols, col)
			if p.peek().kind != tokComma {
				break
			}
			p.next()
		}
	}

	from := p.peekKeyword("FROM")
	if from {
		p.next()
		st.Reference = p.peekKeyword("reference")
		p.next()
	}

	if p.peekKeyword("WHERE") {
		p.next()
		u, err := p.parseUnion()
		if err != nil {
			return Statement{}, err
		}
		st.Where = u
		st.HasWhere = true
	}

	if p.peekKeyword("ORDER") {
		p.next()
		if !p.peekKeyword("BY") {
			return Statement{}, fmt.Errorf("colorsql: expected BY after ORDER at position %d, found %v", p.peek().pos, p.peek())
		}
		p.next()
		ob, err := p.parseOrderExpr()
		if err != nil {
			return Statement{}, err
		}
		if p.peekKeyword("ASC") {
			p.next()
		} else if p.peekKeyword("DESC") {
			p.next()
			ob.Desc = true
		}
		st.Order = ob
	}

	if p.peekKeyword("LIMIT") {
		p.next()
		t := p.next()
		if t.kind == tokMinus {
			return Statement{}, fmt.Errorf("colorsql: LIMIT must be non-negative at position %d", t.pos)
		}
		if t.kind != tokNumber {
			return Statement{}, fmt.Errorf("colorsql: expected row count after LIMIT at position %d, found %v", t.pos, t)
		}
		if t.num != math.Trunc(t.num) || t.num > 1e9 {
			return Statement{}, fmt.Errorf("colorsql: LIMIT %v is not an integer row count", t.num)
		}
		st.Limit = int(t.num)
	}

	if p.peek().kind != tokEOF {
		return Statement{}, fmt.Errorf("colorsql: trailing input at %v", p.peek())
	}
	if from && !(st.Reference && st.Star && st.IsKNN()) {
		return Statement{}, fmt.Errorf("colorsql: FROM takes only SELECT * FROM reference ORDER BY dist(...) LIMIT k")
	}
	return st, nil
}

// MustParseStatement is ParseStatement panicking on error, for tests.
func MustParseStatement(src string, vars map[string]int, dim int) Statement {
	st, err := ParseStatement(src, vars, dim)
	if err != nil {
		panic(err)
	}
	return st
}

// resolveColumn maps a projection identifier: magnitude names go
// through the vars mapping (so the dered_* aliases work), then the
// fixed identity columns.
func resolveColumn(t token, vars map[string]int, dim int) (Column, error) {
	if axis, ok := vars[t.text]; ok {
		if axis < 0 || axis >= dim {
			return Column{}, fmt.Errorf("colorsql: column %q maps to axis %d outside dimension %d", t.text, axis, dim)
		}
		return Column{Name: t.text, Kind: ColMag, Axis: axis}, nil
	}
	switch strings.ToLower(t.text) {
	case "objid":
		return Column{Name: t.text, Kind: ColObjID, Axis: -1}, nil
	case "ra":
		return Column{Name: t.text, Kind: ColRa, Axis: -1}, nil
	case "dec":
		return Column{Name: t.text, Kind: ColDec, Axis: -1}, nil
	case "redshift":
		return Column{Name: t.text, Kind: ColRedshift, Axis: -1}, nil
	case "class":
		return Column{Name: t.text, Kind: ColClass, Axis: -1}, nil
	}
	return Column{}, fmt.Errorf("colorsql: unknown projection column %q at position %d", t.text, t.pos)
}

// peekKeyword reports whether the next token is the given bare-word
// keyword (case-insensitive).
func (p *parser) peekKeyword(kw string) bool {
	t := p.peek()
	return t.kind == tokIdent && strings.EqualFold(t.text, kw)
}

// parseUnion parses a boolean predicate and compiles it to DNF.
func (p *parser) parseUnion() (Union, error) {
	node, err := p.parseOr()
	if err != nil {
		return Union{}, err
	}
	return compileUnion(node)
}

// parseOrderExpr: dist '(' n1 ',' ... ')' | linear expression.
func (p *parser) parseOrderExpr() (*OrderBy, error) {
	if t := p.peek(); t.kind == tokIdent && strings.EqualFold(t.text, "dist") && p.toks[p.pos+1].kind == tokLParen {
		p.next()
		p.next()
		pt := make(vec.Point, 0, p.dim)
		for {
			v, err := p.parseSignedNumber()
			if err != nil {
				return nil, err
			}
			pt = append(pt, v)
			if p.peek().kind != tokComma {
				break
			}
			p.next()
		}
		if _, err := p.expect(tokRParen, "')'"); err != nil {
			return nil, err
		}
		if len(pt) != p.dim {
			return nil, fmt.Errorf("colorsql: dist() needs %d coordinates, got %d", p.dim, len(pt))
		}
		return &OrderBy{Dist: pt}, nil
	}
	e, err := p.parseLinear()
	if err != nil {
		return nil, err
	}
	if e.isConst() {
		return nil, fmt.Errorf("colorsql: ORDER BY expression has no magnitude variables")
	}
	if !e.isFinite() {
		return nil, fmt.Errorf("colorsql: ORDER BY expression has non-finite coefficients")
	}
	return &OrderBy{Coeffs: vec.Point(e.coeffs), K: e.k}, nil
}

// parseSignedNumber: ['-'|'+'] number.
func (p *parser) parseSignedNumber() (float64, error) {
	neg := false
	for {
		switch p.peek().kind {
		case tokMinus:
			p.next()
			neg = !neg
			continue
		case tokPlus:
			p.next()
			continue
		}
		break
	}
	t := p.next()
	if t.kind != tokNumber {
		return 0, fmt.Errorf("colorsql: expected number at position %d, found %v", t.pos, t)
	}
	if neg {
		return -t.num, nil
	}
	return t.num, nil
}

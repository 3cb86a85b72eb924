package colorsql

import (
	"fmt"
	"strconv"
	"strings"

	"repro/internal/table"
)

// This file adds the write half of the statement language — the
// online-ingest entry point that broke the engine's read-only
// assumption:
//
//	INSERT INTO catalog VALUES (objid, u, g, r, i, z[, ra, dec[, redshift[, class]]]), ...
//
// Each tuple is one catalog record. Arity picks the filled fields:
//
//	 6: objid + five magnitudes
//	 8: + ra, dec
//	 9: + spectroscopic redshift (marks the row HasZ — it joins the
//	    photo-z reference set at the next minor compaction)
//	10: + spectral class (star | galaxy | quasar | outlier)
//
// The canonical String() round-trips exactly like SELECT statements
// do: numbers render shortest-form, class renders as its bare name.

// InsertTableName is the only insertable table: the magnitude catalog
// (clustered tables and index copies are maintained by compaction,
// never written directly).
const InsertTableName = "catalog"

// InsertStatement is a parsed INSERT.
type InsertStatement struct {
	// Table is the insert target as written (validated case-
	// insensitively against InsertTableName by the parser).
	Table string
	Rows  []table.Record
}

// IsInsert reports whether src starts with the INSERT keyword — the
// cheap dispatch test servers use to route a statement to the write
// path without a full parse.
func IsInsert(src string) bool {
	i := 0
	for i < len(src) && (src[i] == ' ' || src[i] == '\t' || src[i] == '\n' || src[i] == '\r') {
		i++
	}
	return i+6 <= len(src) && strings.EqualFold(src[i:i+6], "INSERT") &&
		(i+6 == len(src) || !isIdentPart(rune(src[i+6])))
}

// ParseInsert parses an INSERT statement. vars/dim are accepted for
// symmetry with ParseStatement but only dim (the magnitude arity) is
// consulted.
func ParseInsert(src string, dim int) (InsertStatement, error) {
	toks, err := lex(src)
	if err != nil {
		return InsertStatement{}, err
	}
	p := &parser{toks: toks, dim: dim}
	if !p.peekKeyword("INSERT") {
		return InsertStatement{}, fmt.Errorf("colorsql: not an INSERT statement")
	}
	p.next()
	if !p.peekKeyword("INTO") {
		return InsertStatement{}, fmt.Errorf("colorsql: expected INTO after INSERT at position %d, found %v", p.peek().pos, p.peek())
	}
	p.next()
	t := p.next()
	if t.kind != tokIdent {
		return InsertStatement{}, fmt.Errorf("colorsql: expected table name at position %d, found %v", t.pos, t)
	}
	if !strings.EqualFold(t.text, InsertTableName) {
		return InsertStatement{}, fmt.Errorf("colorsql: table %q is not insertable (only %q accepts inserts; clustered copies are maintained by compaction)", t.text, InsertTableName)
	}
	st := InsertStatement{Table: t.text}
	if !p.peekKeyword("VALUES") {
		return InsertStatement{}, fmt.Errorf("colorsql: expected VALUES at position %d, found %v", p.peek().pos, p.peek())
	}
	p.next()
	for {
		rec, err := p.parseInsertTuple(dim)
		if err != nil {
			return InsertStatement{}, err
		}
		st.Rows = append(st.Rows, rec)
		if p.peek().kind != tokComma {
			break
		}
		p.next()
	}
	if p.peek().kind != tokEOF {
		return InsertStatement{}, fmt.Errorf("colorsql: trailing input at %v", p.peek())
	}
	if len(st.Rows) == 0 {
		return InsertStatement{}, fmt.Errorf("colorsql: INSERT with no tuples")
	}
	return st, nil
}

// parseInsertTuple parses one parenthesized value tuple into a record.
func (p *parser) parseInsertTuple(dim int) (table.Record, error) {
	var rec table.Record
	if _, err := p.expect(tokLParen, "'('"); err != nil {
		return rec, err
	}
	// objid: a signed integer.
	objid, err := p.parseSignedNumber()
	if err != nil {
		return rec, err
	}
	if objid != float64(int64(objid)) {
		return rec, fmt.Errorf("colorsql: objid %v is not an integer", objid)
	}
	rec.ObjID = int64(objid)
	// The five magnitudes.
	for d := 0; d < dim; d++ {
		if _, err := p.expect(tokComma, "','"); err != nil {
			return rec, err
		}
		v, err := p.parseSignedNumber()
		if err != nil {
			return rec, err
		}
		rec.Mags[d] = float32(v)
	}
	// Optional extensions, by arity.
	extras := 0
	for p.peek().kind == tokComma {
		p.next()
		extras++
		switch extras {
		case 1: // ra
			v, err := p.parseSignedNumber()
			if err != nil {
				return rec, err
			}
			rec.Ra = float32(v)
		case 2: // dec
			v, err := p.parseSignedNumber()
			if err != nil {
				return rec, err
			}
			rec.Dec = float32(v)
		case 3: // redshift
			v, err := p.parseSignedNumber()
			if err != nil {
				return rec, err
			}
			rec.Redshift = float32(v)
			rec.HasZ = true
		case 4: // class
			t := p.next()
			if t.kind != tokIdent {
				return rec, fmt.Errorf("colorsql: expected class name at position %d, found %v", t.pos, t)
			}
			c, err := parseClass(t.text)
			if err != nil {
				return rec, fmt.Errorf("%w at position %d", err, t.pos)
			}
			rec.Class = c
		default:
			return rec, fmt.Errorf("colorsql: too many values in tuple at position %d", p.peek().pos)
		}
	}
	if extras == 1 {
		return rec, fmt.Errorf("colorsql: ra without dec in tuple (arities: %d, %d, %d, %d)", 1+p.dim, 3+p.dim, 4+p.dim, 5+p.dim)
	}
	if _, err := p.expect(tokRParen, "')'"); err != nil {
		return rec, err
	}
	return rec, nil
}

// parseClass maps a bare class name to its table.Class.
func parseClass(s string) (table.Class, error) {
	for c := table.Star; c < table.NumClasses; c++ {
		if strings.EqualFold(s, c.String()) {
			return c, nil
		}
	}
	return 0, fmt.Errorf("colorsql: unknown class %q (star | galaxy | quasar | outlier)", s)
}

// String renders the INSERT back to parseable source with the same
// exact round-trip contract as Statement.String: ParseInsert(s.String())
// yields a deeply equal InsertStatement (modulo the table spelling,
// which canonicalizes to InsertTableName).
func (s InsertStatement) String() string {
	var b strings.Builder
	b.WriteString("INSERT INTO ")
	b.WriteString(InsertTableName)
	b.WriteString(" VALUES ")
	for i := range s.Rows {
		if i > 0 {
			b.WriteString(", ")
		}
		appendInsertTuple(&b, &s.Rows[i])
	}
	return b.String()
}

// appendInsertTuple renders one record at its minimal faithful arity:
// positions print when set, redshift when HasZ, class when non-zero
// (forcing the wider arities it needs).
func appendInsertTuple(b *strings.Builder, r *table.Record) {
	b.WriteString("(")
	b.WriteString(strconv.FormatInt(r.ObjID, 10))
	for _, m := range r.Mags {
		b.WriteString(", ")
		b.WriteString(formatFloat32(m))
	}
	withClass := r.Class != table.Star
	withZ := r.HasZ || withClass
	withPos := r.Ra != 0 || r.Dec != 0 || withZ
	if withPos {
		b.WriteString(", ")
		b.WriteString(formatFloat32(r.Ra))
		b.WriteString(", ")
		b.WriteString(formatFloat32(r.Dec))
	}
	if withZ {
		b.WriteString(", ")
		b.WriteString(formatFloat32(r.Redshift))
	}
	if withClass {
		b.WriteString(", ")
		b.WriteString(r.Class.String())
	}
	b.WriteString(")")
}

// formatFloat32 prints v in the shortest form that parses back to
// exactly v at float32 precision — the row encoder's layout.
func formatFloat32(v float32) string {
	var buf [16]byte
	return string(table.AppendFloat32(buf[:0], v))
}

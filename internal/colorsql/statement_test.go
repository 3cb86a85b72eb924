package colorsql

import (
	"strings"
	"testing"
)

func TestParseStatementFull(t *testing.T) {
	st, err := ParseStatement(
		"SELECT objid, g, dered_r WHERE g - r > 0.4 AND r < 19 ORDER BY g - r DESC LIMIT 20",
		DefaultVars(), 5)
	if err != nil {
		t.Fatal(err)
	}
	if st.Star {
		t.Error("explicit projection parsed as star")
	}
	if len(st.Cols) != 3 {
		t.Fatalf("cols = %+v", st.Cols)
	}
	if st.Cols[0].Kind != ColObjID || st.Cols[1] != (Column{Name: "g", Kind: ColMag, Axis: 1}) ||
		st.Cols[2] != (Column{Name: "dered_r", Kind: ColMag, Axis: 2}) {
		t.Errorf("cols = %+v", st.Cols)
	}
	if !st.HasWhere || len(st.Where.Polys) != 1 {
		t.Errorf("where = %+v", st.Where)
	}
	if st.Order == nil || !st.Order.Desc || st.Order.Dist != nil {
		t.Fatalf("order = %+v", st.Order)
	}
	// g - r: coefficient +1 on axis 1, -1 on axis 2.
	if st.Order.Coeffs[1] != 1 || st.Order.Coeffs[2] != -1 || st.Order.K != 0 {
		t.Errorf("order expr = %+v", st.Order)
	}
	if st.Limit != 20 {
		t.Errorf("limit = %d", st.Limit)
	}
}

func TestParseStatementDistOrder(t *testing.T) {
	st, err := ParseStatement("SELECT * ORDER BY dist(1, -2.5, 3, 4, 5e0) ASC LIMIT 7", DefaultVars(), 5)
	if err != nil {
		t.Fatal(err)
	}
	if !st.Star || st.HasWhere {
		t.Errorf("star=%v hasWhere=%v", st.Star, st.HasWhere)
	}
	o := st.Order
	if o == nil || o.Desc || o.Dist == nil {
		t.Fatalf("order = %+v", o)
	}
	want := []float64{1, -2.5, 3, 4, 5}
	for i, v := range want {
		if o.Dist[i] != v {
			t.Errorf("dist[%d] = %v, want %v", i, o.Dist[i], v)
		}
	}
	// Squared-distance key at the reference point itself is zero.
	if o.Key(want) != 0 {
		t.Errorf("Key(ref) = %v", o.Key(want))
	}
}

func TestParseStatementReference(t *testing.T) {
	st, err := ParseStatement("SELECT * FROM reference ORDER BY dist(1, -2.5, 3, 4, 5) LIMIT 24", DefaultVars(), 5)
	if err != nil {
		t.Fatal(err)
	}
	if !st.Reference || !st.IsKNN() || st.Limit != 24 {
		t.Fatalf("reference=%v isKNN=%v limit=%d", st.Reference, st.IsKNN(), st.Limit)
	}
	if got, want := st.String(), "SELECT * FROM reference ORDER BY dist(1, -2.5, 3, 4, 5) LIMIT 24"; got != want {
		t.Errorf("String() = %q, want %q", got, want)
	}
	if cat := MustParseStatement("SELECT * ORDER BY dist(1, -2.5, 3, 4, 5) LIMIT 24", DefaultVars(), 5); cat.Reference {
		t.Error("a statement without FROM reads the reference")
	}
}

func TestParseStatementBarePredicate(t *testing.T) {
	st, err := ParseStatement("g - r > 0.4 AND r < 19", DefaultVars(), 5)
	if err != nil {
		t.Fatal(err)
	}
	if !st.Star || !st.HasWhere || st.Order != nil || st.Limit != -1 {
		t.Errorf("bare predicate = %+v", st)
	}
	// Must compile to the same union Parse produces.
	u := MustParse("g - r > 0.4 AND r < 19", DefaultVars(), 5)
	if len(st.Where.Polys) != len(u.Polys) {
		t.Errorf("union sizes differ: %d vs %d", len(st.Where.Polys), len(u.Polys))
	}
}

func TestParseStatementKeywordsCaseInsensitive(t *testing.T) {
	st, err := ParseStatement("select g where r < 19 order by r desc limit 3", DefaultVars(), 5)
	if err != nil {
		t.Fatal(err)
	}
	if st.Limit != 3 || st.Order == nil || !st.Order.Desc || !st.HasWhere {
		t.Errorf("lowercase keywords mis-parsed: %+v", st)
	}
}

func TestParseStatementLimitZero(t *testing.T) {
	st, err := ParseStatement("SELECT * WHERE r < 19 LIMIT 0", DefaultVars(), 5)
	if err != nil {
		t.Fatal(err)
	}
	if st.Limit != 0 {
		t.Errorf("limit = %d, want 0", st.Limit)
	}
}

func TestParseStatementNoWhere(t *testing.T) {
	st, err := ParseStatement("SELECT g, r LIMIT 10", DefaultVars(), 5)
	if err != nil {
		t.Fatal(err)
	}
	if st.HasWhere {
		t.Error("statement without WHERE claims to have one")
	}
	if len(st.Cols) != 2 || st.Limit != 10 {
		t.Errorf("stmt = %+v", st)
	}
}

func TestParseStatementErrors(t *testing.T) {
	cases := []struct {
		src  string
		frag string // expected error substring
	}{
		{"SELECT q WHERE r < 19", "unknown projection column"},
		{"SELECT foo, g", "unknown projection column"},
		{"SELECT", "expected column name"},
		{"SELECT u,", "expected column name"},
		{"SELECT * WHERE", "expected value"},
		{"SELECT * WHERE r <", "expected value"},
		{"SELECT * ORDER r", "expected BY after ORDER"},
		{"SELECT * ORDER BY", "expected value"},
		{"SELECT * ORDER BY 3", "no magnitude variables"},
		{"SELECT * ORDER BY dist(1,2)", "dist() needs 5 coordinates"},
		{"SELECT * ORDER BY dist(1,2,3,4,5,6)", "dist() needs 5 coordinates"},
		{"SELECT * ORDER BY dist(1,2,3,4,x)", "expected number"},
		{"SELECT * LIMIT -5", "must be non-negative"},
		{"SELECT * LIMIT 1.5", "not an integer"},
		{"SELECT * LIMIT", "expected row count"},
		{"SELECT * LIMIT x", "expected row count"},
		{"SELECT * WHERE r < 19 LIMIT 5 garbage", "trailing input"},
		{"SELECT * WHERE r < 19 extra", "trailing input"},
		{"r < 19 LIMIT 5", "trailing input"}, // bare predicates have no LIMIT clause
		// FROM names the reference set, in one shape only.
		{"SELECT * FROM catalog", "FROM takes only SELECT * FROM reference"},
		{"SELECT * FROM", "FROM takes only SELECT * FROM reference"},
		{"SELECT * FROM reference", "FROM takes only"},
		{"SELECT objid FROM reference ORDER BY dist(1,2,3,4,5) LIMIT 3", "takes only"},
		{"SELECT * FROM reference WHERE r < 19 ORDER BY dist(1,2,3,4,5) LIMIT 3", "takes only"},
		{"SELECT * FROM reference ORDER BY dist(1,2,3,4,5) DESC LIMIT 3", "takes only"},
		{"SELECT * FROM reference ORDER BY dist(1,2,3,4,5)", "takes only"},
		{"SELECT * FROM reference ORDER BY dist(1,2,3,4,5) LIMIT 0", "takes only"},
		{"SELECT * FROM reference ORDER BY r LIMIT 3", "takes only"},
	}
	for _, c := range cases {
		_, err := ParseStatement(c.src, DefaultVars(), 5)
		if err == nil {
			t.Errorf("%q: expected error", c.src)
			continue
		}
		if !strings.Contains(err.Error(), c.frag) {
			t.Errorf("%q: error %q does not mention %q", c.src, err, c.frag)
		}
	}
}

func TestParseStatementLinearOrderKey(t *testing.T) {
	st := MustParseStatement("SELECT * WHERE r < 19 ORDER BY g - 2*r + 1", DefaultVars(), 5)
	m := []float64{0, 10, 3, 0, 0} // g=10, r=3
	if got := st.Order.Key(m); got != 10-2*3+1 {
		t.Errorf("Key = %v, want 5", got)
	}
}

package colorsql

import (
	"reflect"
	"strings"
	"testing"
)

// statementSeeds is the grammar matrix: every statement shape the
// /query endpoint serves, plus the pathological forms the parser must
// reject without panicking. It seeds the fuzzer and doubles as the
// round-trip table test.
var statementSeeds = []string{
	// Bare predicates (the legacy where= form).
	"r < 19",
	"g - r > 0.4 AND r < 19",
	"g - r > 0.4 AND g - r < 0.9 AND u - g < 1.8",
	"(dered_r - dered_i - (dered_g - dered_r)/4 - 0.18) < 0.2 AND (dered_g - dered_r) > 1.35 + 0.25*(dered_r - dered_i)",
	"u < 15 OR z > 20",
	"(u < 15 OR z > 20) AND g < 18",
	"2*g - 0.5*r <= 19.5",
	"-u > -15",
	"g/2 + r/2 < 17",
	// Full statements across the clause matrix.
	"SELECT *",
	"SELECT * LIMIT 100",
	"SELECT * WHERE r < 19 LIMIT 0",
	"SELECT objid, g, r WHERE g - r > 0.4 AND r < 19 ORDER BY r LIMIT 20",
	"SELECT u, g, r, i, z WHERE u - g < 1.8 ORDER BY g - r DESC LIMIT 5",
	"SELECT objid, ra, dec, redshift, class WHERE r < 18",
	"SELECT * ORDER BY dist(19.5, 18.9, 18.2, 17.9, 17.7) LIMIT 5",
	"SELECT g ORDER BY dist(1, -2.5, 3, 4, 5e0) ASC LIMIT 7",
	"SELECT dered_g, dered_r WHERE dered_g - dered_r > 1.35 LIMIT 50",
	"select g where r < 19 order by r desc limit 3",
	"SELECT * WHERE (u < 15 OR z > 20) AND (g < 18 OR r < 17) ORDER BY u LIMIT 9",
	"SELECT * FROM reference ORDER BY dist(19.5, 18.9, 18.2, 17.9, 17.7) LIMIT 24",
	"select * from REFERENCE order by dist(1, 2, 3, 4, 5) asc limit 1",
	// Rejected forms: malformed, unknown columns, non-linear,
	// variable-free, wrong arity, overflow, blowup.
	"",
	"SELECT",
	"SELECT q",
	"SELECT * WHERE r <",
	"SELECT * WHERE u * g < 1",
	"SELECT * WHERE u / (g - g) < 1",
	"SELECT * WHERE 3 < 4",
	"SELECT * ORDER BY dist(1,2)",
	"SELECT * LIMIT -5",
	"SELECT * LIMIT 1.5",
	"r < 19 LIMIT 5",
	"SELECT * FROM catalog",
	"SELECT * FROM reference",
	"SELECT * FROM reference LIMIT 5",
	"SELECT g FROM reference ORDER BY dist(1, 2, 3, 4, 5) LIMIT 5",
	"SELECT * FROM reference WHERE r < 19 ORDER BY dist(1, 2, 3, 4, 5) LIMIT 5",
	"SELECT * FROM reference ORDER BY dist(1, 2, 3, 4, 5) DESC LIMIT 5",
	"SELECT * FROM reference ORDER BY dist(1, 2, 3, 4, 5) LIMIT 0",
	"SELECT * FROM reference ORDER BY r LIMIT 5",
	"SELECT * WHERE u < 1e308 + 1e308",
	"SELECT * WHERE u*1e308*10 - u*1e308*10 < 1",
	strings.Repeat("(", 300) + "u < 1" + strings.Repeat(")", 300),
}

// roundTrip asserts the String() contract for one accepted statement.
func roundTrip(t *testing.T, src string, st Statement) {
	t.Helper()
	rendered := st.String()
	st2, err := ParseStatement(rendered, DefaultVars(), 5)
	if err != nil {
		t.Fatalf("%q: rendered form %q does not parse: %v", src, rendered, err)
	}
	if !reflect.DeepEqual(st, st2) {
		t.Fatalf("%q: round trip through %q changed the statement:\n  first:  %+v\n  second: %+v", src, rendered, st, st2)
	}
}

func TestStatementStringRoundTrip(t *testing.T) {
	for _, src := range statementSeeds {
		st, err := ParseStatement(src, DefaultVars(), 5)
		if err != nil {
			continue
		}
		roundTrip(t, src, st)
	}
}

func TestStatementStringReadable(t *testing.T) {
	// Spot-check the rendered form itself, not just the round trip.
	st := MustParseStatement("SELECT objid, g WHERE g - r > 0.4 AND r < 19 ORDER BY r LIMIT 20", DefaultVars(), 5)
	// "g - r > 0.4" compiles to the flipped halfspace -g + r < -0.4.
	want := "SELECT objid, g WHERE (-1*g + r < -0.4 AND r < 19) ORDER BY r LIMIT 20"
	if got := st.String(); got != want {
		t.Errorf("String() = %q, want %q", got, want)
	}
}

func TestDNFBlowupRejected(t *testing.T) {
	// (u<1 OR g<1) AND-ed n times expands to 2^n DNF clauses; past
	// maxDNFClauses the parser must reject rather than materialize.
	clause := "(u < 1 OR g < 1)"
	src := clause + strings.Repeat(" AND "+clause, 10) // 2^11 = 2048 clauses
	if _, err := ParseStatement(src, DefaultVars(), 5); err == nil || !strings.Contains(err.Error(), "DNF clauses") {
		t.Errorf("2^11-clause DNF: err = %v, want clause-cap error", err)
	}
	// Just under the cap still parses (2^8 = 256).
	src = clause + strings.Repeat(" AND "+clause, 7)
	st, err := ParseStatement(src, DefaultVars(), 5)
	if err != nil {
		t.Fatalf("2^8-clause DNF rejected: %v", err)
	}
	if len(st.Where.Polys) != 256 {
		t.Errorf("clause count = %d, want 256", len(st.Where.Polys))
	}
}

func TestDeepNestingRejected(t *testing.T) {
	src := strings.Repeat("(", 10_000) + "u < 1" + strings.Repeat(")", 10_000)
	if _, err := ParseStatement(src, DefaultVars(), 5); err == nil || !strings.Contains(err.Error(), "nests deeper") {
		t.Errorf("10k-deep nesting: err = %v, want depth error", err)
	}
	// Sane nesting still parses.
	if _, err := ParseStatement(strings.Repeat("(", 50)+"u < 1"+strings.Repeat(")", 50), DefaultVars(), 5); err != nil {
		t.Errorf("50-deep nesting rejected: %v", err)
	}
}

func TestNonFiniteCoefficientsRejected(t *testing.T) {
	for _, src := range []string{
		"u < 1e308 + 1e308",                 // +Inf bound
		"u*1e308*10 < 1",                    // +Inf coefficient
		"u*1e308*10 - u*1e308*10 < 1",       // NaN coefficient (Inf - Inf)
		"SELECT * ORDER BY u*1e308*10",      // Inf ordering coefficient
		"SELECT * ORDER BY u + 1e308*1e308", // Inf ordering constant
	} {
		if _, err := ParseStatement(src, DefaultVars(), 5); err == nil || !strings.Contains(err.Error(), "non-finite") {
			t.Errorf("%q: err = %v, want non-finite rejection", src, err)
		}
	}
}

// FuzzParseStatement asserts two properties over arbitrary input:
// the parser never panics, and every accepted statement survives the
// String() round trip to a deeply equal AST.
func FuzzParseStatement(f *testing.F) {
	for _, src := range statementSeeds {
		f.Add(src)
	}
	f.Fuzz(func(t *testing.T, src string) {
		st, err := ParseStatement(src, DefaultVars(), 5)
		if err != nil {
			return
		}
		roundTrip(t, src, st)
	})
}

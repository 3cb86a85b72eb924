package engine

import "testing"

func TestCatalog(t *testing.T) {
	db, err := Open(t.TempDir(), 256)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { db.Close() })
	if _, err := db.CreateTable("a"); err != nil {
		t.Fatal(err)
	}
	if _, err := db.CreateTable("a"); err == nil {
		t.Error("duplicate table should fail")
	}
	if _, err := db.Table("a"); err != nil {
		t.Error(err)
	}
	if _, err := db.Table("missing"); err == nil {
		t.Error("missing table should fail")
	}
	if got := db.TableNames(); len(got) != 1 || got[0] != "a" {
		t.Errorf("TableNames = %v", got)
	}
}

package knowledge

import "testing"

func TestAddAndContains(t *testing.T) {
	b := NewBase()
	b.AddEntities("City", "Chicago", " Boston ", "DENVER")
	if !b.Contains("City", "chicago") {
		t.Error("lookup must be case-insensitive")
	}
	if !b.Contains("City", "Boston") {
		t.Error("entities must be trimmed on insert")
	}
	if !b.Contains("City", "denver") {
		t.Error("entities must be lowercased on insert")
	}
	if b.Contains("City", "Paris") {
		t.Error("unknown entity must not be contained")
	}
	if b.Contains("State", "Chicago") {
		t.Error("wrong type must not match")
	}
}

func TestHasTypeAndTypes(t *testing.T) {
	b := NewBase()
	if b.HasType("City") || b.Types() != 0 {
		t.Error("empty base has no types")
	}
	b.AddEntities("City", "Chicago")
	b.AddEntities("State", "IL")
	if !b.HasType("City") || b.Types() != 2 {
		t.Errorf("Types() = %d, want 2", b.Types())
	}
}

func TestCoverageFor(t *testing.T) {
	b := NewBase()
	b.AddEntities("City", "Chicago", "Boston")
	col := []string{"Chicago", "Boston", "Chicagq", "Boston"}
	if got := b.CoverageFor("City", col); got != 0.75 {
		t.Errorf("coverage = %v, want 0.75", got)
	}
	if got := b.CoverageFor("State", col); got != 0 {
		t.Errorf("coverage for unknown type = %v, want 0", got)
	}
	if got := b.CoverageFor("City", nil); got != 0 {
		t.Errorf("coverage of empty column = %v, want 0", got)
	}
}

func TestBestType(t *testing.T) {
	b := NewBase()
	b.AddEntities("City", "Chicago", "Boston")
	b.AddEntities("State", "IL", "MA")
	typ, cov := b.BestType([]string{"Chicago", "Boston", "IL"})
	if typ != "City" || cov < 0.6 {
		t.Errorf("BestType = %s (%.2f), want City", typ, cov)
	}
	typ, cov = NewBase().BestType([]string{"x"})
	if typ != "" || cov != 0 {
		t.Error("empty base BestType should be empty")
	}
}

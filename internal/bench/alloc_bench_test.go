package bench

import "testing"

// TestE13AllocsZero runs the real E13 table and requires every row to
// be allocation-free. It is the zero-allocation gate: CI's go test step
// fails the build on any new allocation on the serving hot path.
func TestE13AllocsZero(t *testing.T) {
	tbl, err := E13Allocs(Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(tbl.Rows) != 6 {
		t.Fatalf("e13 has %d rows, want 6", len(tbl.Rows))
	}
	for _, row := range tbl.Rows {
		if row[1] != "0" {
			t.Errorf("%s: %s allocs/op, want 0", row[0], row[1])
		}
	}
}

package bench

import (
	"testing"
	"time"
)

func TestE12Durability(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-point load run with disk I/O; skipped with -short")
	}
	tab, err := E12Durability(Options{Dur: 10 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	if tab.ID != "e12" || len(tab.Rows) != 4 || len(tab.Cols) != 7 {
		t.Fatalf("table shape: id=%s rows=%d cols=%d", tab.ID, len(tab.Rows), len(tab.Cols))
	}
	// The memory row has no disk columns; every durable row does.
	if tab.Rows[0][0] != "memory" || tab.Rows[0][5] != "-" {
		t.Fatalf("memory row: %v", tab.Rows[0])
	}
	for _, row := range tab.Rows[1:] {
		if row[5] == "-" || row[6] == "-" {
			t.Fatalf("durable row %q is missing its disk columns: %v", row[0], row)
		}
	}
}

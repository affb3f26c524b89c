package bench

import (
	"testing"
	"time"
)

func TestE14Instrumentation(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-point load run; skipped with -short")
	}
	tab, err := E14Instrumentation(Options{Dur: 15 * time.Millisecond, Iters: 100})
	if err != nil {
		t.Fatal(err)
	}
	if tab.ID != "e14" || len(tab.Rows) != 3 || len(tab.Cols) != 6 {
		t.Fatalf("table shape: id=%s rows=%d cols=%d", tab.ID, len(tab.Rows), len(tab.Cols))
	}
	// Rows run idle, 1/64, all. The span rate column must be zero
	// without sampling and nonzero when every request is traced.
	for i, arm := range []string{"idle", "1/64", "all"} {
		if tab.Rows[i][0] != arm {
			t.Fatalf("row %d arm = %s, want %s", i, tab.Rows[i][0], arm)
		}
	}
	if got := tab.Rows[0][5]; got != "0" {
		t.Errorf("idle row spans/s = %s, want 0", got)
	}
	if got := tab.Rows[2][5]; got == "0" {
		t.Errorf("all row retired no spans")
	}
}

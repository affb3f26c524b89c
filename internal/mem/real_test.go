package mem

import (
	"reflect"
	"runtime"
	"sync"
	"testing"
)

func TestRealNewWordSubstrates(t *testing.T) {
	r := NewReal(4, SubstrateTagged)
	w := r.NewWord(WordX, 0, 10, 5)
	if got := w.Read(0); got != 5 {
		t.Fatalf("Read = %d, want 5", got)
	}
	if r.FellBack() != 0 {
		t.Fatalf("unexpected fallback for small config")
	}

	// A value width that starves the tag counter must fall back to Ptr.
	w2 := r.NewWord(WordBank, 0, 60, 1)
	if got := w2.Read(0); got != 1 {
		t.Fatalf("fallback word Read = %d, want 1", got)
	}
	if r.FellBack() != 1 {
		t.Fatalf("FellBack = %d, want 1", r.FellBack())
	}
}

func TestRealNewWordPtrSubstrate(t *testing.T) {
	r := NewReal(2, SubstratePtr)
	w := r.NewWord(WordHelp, 1, 8, 3)
	w.LL(0)
	if !w.SC(0, 200) {
		t.Fatal("SC failed")
	}
	if got := w.Read(1); got != 200 {
		t.Fatalf("Read = %d, want 200", got)
	}
}

func TestRealBuffersRoundTrip(t *testing.T) {
	r := NewReal(2, SubstrateTagged)
	b := r.NewBuffers(3, 4)
	if b.W() != 4 {
		t.Fatalf("W = %d, want 4", b.W())
	}
	src := []uint64{1, 2, 3, 4}
	b.WriteBuf(0, 1, src)
	dst := make([]uint64, 4)
	b.ReadBuf(1, 1, dst)
	for i := range src {
		if dst[i] != src[i] {
			t.Fatalf("dst[%d] = %d, want %d", i, dst[i], src[i])
		}
	}
	// Other buffers stay zero.
	b.ReadBuf(0, 0, dst)
	for i, v := range dst {
		if v != 0 {
			t.Fatalf("buffer 0 word %d = %d, want 0", i, v)
		}
	}
	b.ReadBuf(0, 2, dst)
	for i, v := range dst {
		if v != 0 {
			t.Fatalf("buffer 2 word %d = %d, want 0", i, v)
		}
	}
}

// TestRealBuffersConcurrentDisjoint writes disjoint buffers from many
// goroutines; with the race detector this validates the flat layout.
func TestRealBuffersConcurrentDisjoint(t *testing.T) {
	const n, w = 8, 16
	r := NewReal(n, SubstrateTagged)
	b := r.NewBuffers(n, w)
	var wg sync.WaitGroup
	for p := 0; p < n; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			src := make([]uint64, w)
			dst := make([]uint64, w)
			for i := 0; i < 500; i++ {
				for j := range src {
					src[j] = uint64(p*1000 + i)
				}
				b.WriteBuf(p, p, src)
				b.ReadBuf(p, p, dst)
				for j := range dst {
					if dst[j] != src[j] {
						t.Errorf("p%d word %d = %d, want %d", p, j, dst[j], src[j])
						return
					}
				}
			}
		}(p)
	}
	wg.Wait()
}

// TestCopyRuleMatchesBuild pins which copies each build compiles in:
// plain words exactly under amd64 && !race, atomic words everywhere else.
func TestCopyRuleMatchesBuild(t *testing.T) {
	plain := reflect.TypeFor[bufWord]() == reflect.TypeFor[uint64]()
	if want := runtime.GOARCH == "amd64" && !raceBuild; plain != want {
		t.Fatalf("GOARCH=%s race=%v: buffer word is %v, want plain=%v",
			runtime.GOARCH, raceBuild, reflect.TypeFor[bufWord](), want)
	}
}

func TestWordKindString(t *testing.T) {
	if WordX.String() != "X" || WordBank.String() != "Bank" || WordHelp.String() != "Help" {
		t.Fatal("WordKind.String mismatch")
	}
	if WordKind(0).String() != "?" {
		t.Fatal("unknown WordKind should stringify to ?")
	}
}

func TestEventKindString(t *testing.T) {
	kinds := []EventKind{
		EvLLStart, EvLLAnnounced, EvLLWithdrawn, EvLLDone,
		EvSCStart, EvSCHandoff, EvSCPublished, EvSCDone, EvVLStart, EvVLDone,
	}
	seen := make(map[string]bool, len(kinds))
	for _, k := range kinds {
		s := k.String()
		if s == "?" || seen[s] {
			t.Fatalf("EventKind %d stringifies badly: %q", k, s)
		}
		seen[s] = true
	}
}

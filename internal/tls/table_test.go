package tls

import (
	"math"
	"math/rand"
	"testing"
)

// TestTableMatchesMap drives the generation-stamped table and a Go map
// through the same random puts, gets and resets, across growth and dense
// probe clusters, and requires identical contents throughout.
func TestTableMatchesMap(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	var tab table[int64]
	ref := map[uint64]int64{}
	tab.reset()
	for step := 0; step < 200_000; step++ {
		// Keys from a pool whose size drifts, so the table both grows
		// and gets reused well below its capacity; multiples of 4096
		// share their low bits.
		key := uint64(rng.Intn(1+step%3000)) * 4096
		switch op := rng.Intn(100); {
		case op == 0:
			tab.reset()
			clear(ref)
		case op < 50:
			v, added := tab.put(key)
			if _, ok := ref[key]; added == ok {
				t.Fatalf("step %d: put(%d) added=%v, map has it: %v", step, key, added, ok)
			}
			*v = int64(step)
			ref[key] = int64(step)
		default:
			v := tab.get(key)
			want, ok := ref[key]
			if (v != nil) != ok || ok && *v != want {
				t.Fatalf("step %d: get(%d) = %v, map %d/%v", step, key, v, want, ok)
			}
		}
		if tab.n != len(ref) {
			t.Fatalf("step %d: %d live slots, map has %d", step, tab.n, len(ref))
		}
	}
}

// TestTableGenerationWrap: a slot stamped 2^32 resets ago must not come
// back to life when the generation counter wraps.
func TestTableGenerationWrap(t *testing.T) {
	var tab table[struct{}]
	tab.reset()
	tab.put(42)
	// As if 2^32-2 resets with no puts had followed.
	tab.gen, tab.n = math.MaxUint32, 0
	tab.reset()
	if tab.gen != 1 {
		t.Fatalf("generation after wrap = %d, want 1", tab.gen)
	}
	if tab.get(42) != nil {
		t.Fatal("a slot from before the wrap reads as live")
	}
	if _, added := tab.put(42); !added {
		t.Fatal("put after the wrap found a stale slot")
	}
}

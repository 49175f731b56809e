package exec

import (
	"errors"
	"sync"
	"testing"
	"testing/quick"

	"taskbench/internal/core"
)

func TestBlockAssignCoversWidth(t *testing.T) {
	f := func(widthRaw, ranksRaw uint8) bool {
		width := int(widthRaw)
		ranks := 1 + int(ranksRaw)%16
		spans := BlockAssign(width, ranks)
		if len(spans) != ranks {
			return false
		}
		covered := 0
		prev := 0
		for _, s := range spans {
			if s.Lo != prev || s.Hi < s.Lo {
				return false
			}
			covered += s.Len()
			prev = s.Hi
		}
		return covered == width && prev == width
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestBlockAssignBalance(t *testing.T) {
	spans := BlockAssign(10, 4)
	sizes := []int{spans[0].Len(), spans[1].Len(), spans[2].Len(), spans[3].Len()}
	for _, n := range sizes {
		if n < 2 || n > 3 {
			t.Errorf("unbalanced spans %v", sizes)
		}
	}
}

func TestOwnerOfMatchesBlockAssign(t *testing.T) {
	f := func(widthRaw, ranksRaw uint8) bool {
		width := 1 + int(widthRaw)%100
		ranks := 1 + int(ranksRaw)%16
		spans := BlockAssign(width, ranks)
		for i := 0; i < width; i++ {
			r := OwnerOf(i, width, ranks)
			if r < 0 || r >= ranks {
				return false
			}
			if i < spans[r].Lo || i >= spans[r].Hi {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestErrOnce(t *testing.T) {
	var e ErrOnce
	if e.Failed() || e.Err() != nil {
		t.Error("fresh ErrOnce reports failure")
	}
	e.Set(nil) // ignored
	if e.Failed() {
		t.Error("Set(nil) recorded a failure")
	}
	first := errors.New("first")
	e.Set(first)
	e.Set(errors.New("second"))
	if e.Err() != first {
		t.Errorf("Err = %v, want first error", e.Err())
	}
	if !e.Failed() {
		t.Error("Failed() = false after Set")
	}
}

func TestBarrierRendezvous(t *testing.T) {
	const n = 8
	const rounds = 50
	b := newBarrier(n)
	var mu sync.Mutex
	counts := make([]int, rounds)
	var wg sync.WaitGroup
	for w := 0; w < n; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				mu.Lock()
				counts[r]++
				mu.Unlock()
				b.Wait()
				// After the barrier, every participant must have
				// incremented this round's count.
				mu.Lock()
				if counts[r] != n {
					t.Errorf("round %d: count %d at barrier exit", r, counts[r])
				}
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
}

func TestRowsDoubleBuffer(t *testing.T) {
	r := NewRows(4, 8)
	copy(r.Cur(2), []byte("abcdefgh"))
	r.Flip()
	if string(r.Prev(2)) != "abcdefgh" {
		t.Errorf("Prev after flip = %q", r.Prev(2))
	}
	copy(r.Cur(2), []byte("12345678"))
	r.Flip()
	if string(r.Prev(2)) != "12345678" || string(r.Cur(2)) != "abcdefgh" {
		t.Error("second flip did not swap buffers")
	}
}

func TestWorkersFor(t *testing.T) {
	g := core.MustNew(core.Params{Timesteps: 2, MaxWidth: 2})
	app := core.NewApp(g)
	if w := WorkersFor(app); w > 2 || w < 1 {
		t.Errorf("WorkersFor capped = %d, want <= total width 2", w)
	}
	app.Workers = 1
	if w := WorkersFor(app); w != 1 {
		t.Errorf("explicit workers = %d, want 1", w)
	}
	// Multiple graphs widen the cap.
	app2 := core.NewApp(g, core.MustNew(core.Params{GraphID: 1, Timesteps: 2, MaxWidth: 2}))
	app2.Workers = 4
	if w := WorkersFor(app2); w != 4 {
		t.Errorf("two-graph workers = %d, want 4", w)
	}
}

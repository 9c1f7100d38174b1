package parallel_test

import (
	"context"
	"runtime"
	"testing"
	"time"

	"cmfuzz/internal/parallel"
	"cmfuzz/internal/protocols"
)

// TestCoAPSeed12HeapBounded is the regression test for the defect the
// benchmark's gate reported as "CoAP at fuzz-seed 12 holds 3.4 GB": the
// growth was the engine's — StringRepeat compounding on one field, the
// result copied into the message buffer and the corpus — and this
// campaign is where it showed (1.7 GB of heap in use
// and 7.5 s before fuzz.maxFieldLen, about 100 MB and 0.6 s after). The
// heap is sampled while the campaign runs; 400 MB leaves room for a
// slower collector, not for the defect.
func TestCoAPSeed12HeapBounded(t *testing.T) {
	sub, err := protocols.ByName("CoAP")
	if err != nil {
		t.Fatal(err)
	}
	runtime.GC()
	stop, peak := make(chan struct{}), make(chan uint64)
	go func() {
		var ms runtime.MemStats
		var most uint64
		tick := time.NewTicker(5 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-stop:
				peak <- most
				return
			case <-tick.C:
				runtime.ReadMemStats(&ms)
				most = max(most, ms.HeapInuse)
			}
		}
	}()
	_, err = parallel.Run(context.Background(), sub, parallel.Options{Mode: parallel.ModeCMFuzz, VirtualHours: 8, Seed: 12})
	close(stop)
	most := <-peak
	if err != nil {
		t.Fatal(err)
	}
	if most == 0 || most > 400<<20 {
		t.Fatalf("CoAP seed 12 at 8 vh held %d MB of heap in use at its peak, want a reading under 400 MB", most>>20)
	}
}

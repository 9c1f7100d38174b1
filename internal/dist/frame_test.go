package dist

import (
	"io"
	"testing"
)

// TestWriteFrameAllocs pins the satellite fix: a warmed frameWriter
// sends frames with zero allocations, so the lease loop's frame traffic
// stays off the garbage collector entirely.
func TestWriteFrameAllocs(t *testing.T) {
	fw := &frameWriter{}
	payload := make([]byte, 4096)
	if err := fw.write(io.Discard, msgLease, 1, payload); err != nil { // warm the scratch
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(200, func() {
		fw.write(io.Discard, msgLease, 1, payload)
	})
	if allocs != 0 {
		t.Fatalf("frameWriter.write allocates %.1f times per frame, want 0", allocs)
	}
}

func BenchmarkWriteFrame(b *testing.B) {
	fw := &frameWriter{}
	payload := make([]byte, 4096)
	b.ReportAllocs()
	b.SetBytes(int64(len(payload) + frameHeader))
	for i := 0; i < b.N; i++ {
		if err := fw.write(io.Discard, msgLease, 1, payload); err != nil {
			b.Fatal(err)
		}
	}
}

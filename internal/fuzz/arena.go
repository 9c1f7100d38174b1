package fuzz

// An Arena lends the bytes one engine step copies out of the data models —
// the Data of every leaf a mutation or relation fix-up writes, and the new
// payloads the mutators build — and
// recycles them all with a single Reset. Nothing allocated from an arena
// may outlive the next Reset: the engine serializes each message to wire
// bytes before the next is built, and only those bytes (deep-copied when
// kept as a corpus seed) escape the step. After a few warm-up steps the
// chunk list stops growing and copying a leaf allocates nothing.
//
// An Arena is not safe for concurrent use; each engine owns one.
type Arena struct {
	chunks [][]byte
	chunk  int // index of the active chunk
	used   int // bytes handed out from the active chunk
}

const arenaChunk = 8192

// NewArena returns an empty arena. Chunks are allocated lazily on first
// use and retained across Resets.
func NewArena() *Arena { return &Arena{} }

// Reset recycles everything allocated since the previous Reset. Chunk
// storage is retained, so a warmed-up arena allocates nothing.
func (a *Arena) Reset() { a.chunk, a.used = 0, 0 }

// alloc returns n bytes of arena storage (the heap for a nil arena or an
// oversized n) with clamped capacity, so an append by a caller can never
// bleed into a neighbor. Arena bytes are not zeroed: the caller writes
// all n. Zero bytes give nil.
func (a *Arena) alloc(n int) []byte {
	if n == 0 {
		return nil
	}
	if a == nil || n > arenaChunk {
		return make([]byte, n)
	}
	if a.chunk == len(a.chunks) {
		a.chunks = append(a.chunks, make([]byte, arenaChunk))
	}
	if a.used+n > arenaChunk {
		a.chunk++
		a.used = 0
		if a.chunk == len(a.chunks) {
			a.chunks = append(a.chunks, make([]byte, arenaChunk))
		}
	}
	s := a.chunks[a.chunk][a.used : a.used+n : a.used+n]
	a.used += n
	return s
}

// copyBytes copies src into storage from alloc. Empty input gives nil.
func (a *Arena) copyBytes(src []byte) []byte {
	s := a.alloc(len(src))
	copy(s, src)
	return s
}

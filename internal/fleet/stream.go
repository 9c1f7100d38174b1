package fleet

import "sync"

// A StreamEvent is one fleet lifecycle event on the /api/events SSE
// feed. Type is one of: submit, slice_start, checkpoint, slice_end,
// done, failed, worker_death. Warm, on slice_start, says the slice
// continues a live coordinator (warm hand-off or suspended campaign
// resumed) rather than starting or restoring one; absent means cold.
// Seq is a monotone per-manager sequence
// number so consumers can detect drops (the feed is lossy by design);
// Dropped, when set, says how many events this subscriber lost
// immediately before this one, so a dashboard can flag the gap without
// bookkeeping Seq arithmetic itself.
type StreamEvent struct {
	Seq        int64   `json:"seq"`
	Type       string  `json:"type"`
	Campaign   string  `json:"campaign,omitempty"`
	Worker     string  `json:"worker,omitempty"`
	State      string  `json:"state,omitempty"`
	Clock      float64 `json:"clock,omitempty"`
	Edges      int     `json:"edges,omitempty"`
	Execs      int     `json:"execs,omitempty"`
	EdgesDelta int     `json:"edges_delta,omitempty"`
	ExecsDelta int     `json:"execs_delta,omitempty"`
	Reward     float64 `json:"reward,omitempty"`
	Warm       bool    `json:"warm,omitempty"`
	Dropped    int64   `json:"dropped,omitempty"`
	Error      string  `json:"error,omitempty"`
}

// subscriber is one consumer's buffered channel plus the count of
// events it has lost since its last successful delivery — stamped onto
// the next event that does get through.
type subscriber struct {
	ch      chan StreamEvent
	dropped int64
}

// broker fans StreamEvents out to live subscribers. Publishing never
// blocks the scheduler: a subscriber whose buffer is full simply loses
// the event. Every loss is visible twice over — the lifetime total
// feeds the cmfuzz_stream_dropped_total counter, and the per-gap count
// rides the subscriber's next delivered event as Dropped.
type broker struct {
	mu           sync.Mutex
	seq          int64
	droppedTotal int64
	subs         map[*subscriber]struct{}
}

func newBroker() *broker {
	return &broker{subs: make(map[*subscriber]struct{})}
}

func (b *broker) publish(ev StreamEvent) {
	if b == nil {
		return
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	b.seq++
	ev.Seq = b.seq
	for sub := range b.subs {
		ev.Dropped = sub.dropped
		select {
		case sub.ch <- ev:
			sub.dropped = 0
		default: // slow consumer: drop, never stall the scheduler
			sub.dropped++
			b.droppedTotal++
		}
	}
}

// dropped reports the lifetime count of events lost to slow
// subscribers, across all subscribers including departed ones.
func (b *broker) dropped() int64 {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.droppedTotal
}

// subscribe registers a new consumer and returns its channel plus a
// cancel func that unregisters and closes it.
func (b *broker) subscribe() (<-chan StreamEvent, func()) {
	sub := &subscriber{ch: make(chan StreamEvent, 64)}
	b.mu.Lock()
	b.subs[sub] = struct{}{}
	b.mu.Unlock()
	return sub.ch, func() {
		b.mu.Lock()
		if _, ok := b.subs[sub]; ok {
			delete(b.subs, sub)
			close(sub.ch)
		}
		b.mu.Unlock()
	}
}

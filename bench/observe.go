package main

import (
	"math"
	"net"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"cmfuzz/internal/coverage"
	"cmfuzz/internal/subject"
	"cmfuzz/internal/telemetry/trace"
)

// messageStride is how often a decorated Message call is timed. Two
// clock reads cost ~140 ns on the sizing host against ~10 µs for a whole
// execution of three or four messages, so timing every call would eat
// the 5% tracing budget by itself. Every call is counted; the busy time
// is the sampled sum scaled by calls/samples, from some 70,000 samples a
// repetition. The stride is prime so that it does not fall in step with
// sessions of two, four or eight messages. The test times every call: at
// its quarter-hour horizon one sample that a GC pause fell into, scaled by
// the stride, would outweigh a campaign.
var messageStride int64 = 31

// timedSubject decorates a subject so the traced pass can time and count
// the protocols layer from outside. Every instance the stack asks for
// (probe, boot, restart, restore) is a timedInstance that keeps its own
// counters; stats() sums them once the run has returned. Instances are
// never shared between goroutines, so the hot path takes no lock.
type timedSubject struct {
	subject.Subject
	// parent is the campaign span Start calls are filed under.
	parent *trace.Span

	mu    sync.Mutex
	insts []*timedInstance
}

func (s *timedSubject) NewInstance() subject.Instance {
	ti := &timedInstance{Instance: s.Subject.NewInstance(), sub: s}
	s.mu.Lock()
	s.insts = append(s.insts, ti)
	s.mu.Unlock()
	return ti
}

type timedInstance struct {
	subject.Instance
	sub *timedSubject
	protoStats
	untilSample int64 // Message calls left before the next timed one
}

// Start is rare (thousands per campaign), so each call is a span of its
// own. The deferred filing also covers a start that panics with a seeded
// configuration-parsing crash.
func (t *timedInstance) Start(cfg map[string]string, tr *coverage.Trace) (err error) {
	tc := t.sub.parent.Tracer()
	begin := tc.Now()
	ok := false
	defer func() {
		end := tc.Now()
		t.startCalls++
		t.startBusy += end - begin
		if !ok {
			t.startFailed++
		}
		t.sub.parent.Complete("protocols.start", begin, end, trace.A("ok", ok))
	}()
	err = t.Instance.Start(cfg, tr)
	ok = err == nil
	return err
}

func (t *timedInstance) NewSession() {
	t.sessions++
	t.Instance.NewSession()
}

// Message panics through on a seeded crash; that one sample is lost, the
// call is still counted.
func (t *timedInstance) Message(payload []byte) [][]byte {
	t.messages++
	if t.untilSample--; t.untilSample > 0 {
		return t.Instance.Message(payload)
	}
	t.untilSample = messageStride
	begin := time.Now()
	out := t.Instance.Message(payload)
	t.sampledNs = append(t.sampledNs, uint32(min(time.Since(begin), math.MaxUint32)))
	return out
}

// protoStats is what one decorated instance, or a sum of them, saw of the
// protocols layer.
type protoStats struct {
	startCalls  int
	startFailed int
	startBusy   time.Duration
	sessions    int64
	messages    int64
	sampledNs   []uint32 // duration of every messageStride-th Message call
}

// stats sums every instance the subject has handed out. Call it only
// after the run that used the subject has returned.
func (s *timedSubject) stats() protoStats {
	s.mu.Lock()
	defer s.mu.Unlock()
	var p protoStats
	for _, ti := range s.insts {
		p.add(ti.protoStats)
	}
	return p
}

func (p *protoStats) add(o protoStats) {
	p.startCalls += o.startCalls
	p.startFailed += o.startFailed
	p.startBusy += o.startBusy
	p.sessions += o.sessions
	p.messages += o.messages
	p.sampledNs = append(p.sampledNs, o.sampledNs...)
}

// messageBusy estimates the time spent inside Message from the samples.
func (p *protoStats) messageBusy() time.Duration {
	if len(p.sampledNs) == 0 {
		return 0
	}
	var sum float64
	for _, ns := range p.sampledNs {
		sum += float64(ns)
	}
	return time.Duration(sum * float64(p.messages) / float64(len(p.sampledNs)))
}

// messageP99 is the 99th percentile of the sampled Message durations.
func (p *protoStats) messageP99() time.Duration {
	if len(p.sampledNs) == 0 {
		return 0
	}
	s := append([]uint32(nil), p.sampledNs...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	return time.Duration(s[len(s)*99/100])
}

// wireStats is what the counting connections of one run saw.
type wireStats struct {
	frames       atomic.Int64
	bytes        atomic.Int64
	workerBusyNs atomic.Int64
}

type wireSnapshot struct{ frames, bytes, workerBusyNs int64 }

func (st *wireStats) snapshot() wireSnapshot {
	return wireSnapshot{st.frames.Load(), st.bytes.Load(), st.workerBusyNs.Load()}
}

// countingConn wraps one end of a coordinator↔worker pipe. Both sides
// write one frame per Write call (dist's frameWriter), so Write calls
// count frames. On the worker end, the time from the last request byte
// read to the start of the reply write is the worker's busy time; the
// write itself blocks on the peer and is wire wait, not work.
type countingConn struct {
	net.Conn
	st       *wireStats
	worker   bool
	lastRead time.Time // worker end only; Serve is single-threaded
}

func (c *countingConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	if c.worker {
		c.lastRead = time.Now()
	}
	return n, err
}

func (c *countingConn) Write(p []byte) (int, error) {
	if c.worker && !c.lastRead.IsZero() {
		c.st.workerBusyNs.Add(int64(time.Since(c.lastRead)))
	}
	n, err := c.Conn.Write(p)
	c.st.frames.Add(1)
	c.st.bytes.Add(int64(n))
	return n, err
}

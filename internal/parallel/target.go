package parallel

import (
	"math/rand"

	"cmfuzz/internal/bugs"
	"cmfuzz/internal/core/configmodel"
	"cmfuzz/internal/coverage"
	"cmfuzz/internal/subject"
)

// A link is an instance's only path to its subject, with the campaign's
// impairment on it: datagram loss and per-message latency, each drawn
// from its own seeded stream so enabling one never moves the other's
// sequence. Nothing sleeps; accrued is the latency delivered so far, in
// virtual seconds, and Instance.Step spends it on the clock.
type link struct {
	datagram     bool // only a datagram can be lost, as a TCP segment cannot
	loss         float64
	lossRng      *rand.Rand // nil unless loss > 0
	base, jitter float64
	latRng       *rand.Rand // nil unless base or jitter > 0
	accrued      float64
}

// newLink opens instance index's link over transport, seeded from the
// campaign seed so its streams differ across instances yet replay per
// campaign.
func newLink(o *Options, index int, transport subject.Transport) *link {
	l := &link{datagram: transport == subject.Datagram, loss: o.LinkLoss, base: o.LinkLatencyBase, jitter: o.LinkLatencyJitter}
	if l.loss > 0 {
		l.lossRng = rand.New(rand.NewSource(o.Seed*31 + int64(index)))
	}
	if l.base > 0 || l.jitter > 0 {
		l.latRng = rand.New(rand.NewSource(o.Seed*37 + int64(index)))
	}
	return l
}

// deliver decides the next message's fate. A lost datagram is charged
// no latency; a delivered message accrues base plus a uniform draw in
// [0, jitter).
func (l *link) deliver() bool {
	if l.datagram && l.lossRng != nil && l.lossRng.Float64() < l.loss {
		return false
	}
	if l.latRng != nil {
		// Rounded before the addition, so no CPU fuses it (see charge).
		l.accrued += l.base + float64(l.latRng.Float64()*l.jitter)
	}
	return true
}

// netTarget adapts a subject instance into a fuzz.Target that sends every
// message over the instance's link. Each instance owns its target, link
// and subject object, which is what isolates it from its siblings.
type netTarget struct {
	link    *link
	index   int // the instance's, stamped on its crash records
	inst    subject.Instance
	startup *coverage.Map // coverage the latest boot produced
	crashes []CrashRec    // what boots hit since the last takeCrashes
}

// boot starts (or restarts) the backing instance under cfg at virtual
// time now; the link stays. A crash during startup (a configuration-
// parsing defect) is kept as a record and returned as the error. An
// instance that fails or crashes in Start is closed, as subject.Probe
// closes its own: a live target's half-started process must not outlive
// the failed restart.
func (t *netTarget) boot(sub subject.Subject, cfg configmodel.Assignment, now float64) error {
	inst := sub.NewInstance()
	tr := coverage.NewTrace()
	var startErr error
	crash := bugs.Capture(func() {
		startErr = inst.Start(map[string]string(cfg), tr)
	})
	if crash != nil {
		inst.Close()
		t.crashes = append(t.crashes, CrashRec{Crash: *crash, Instance: t.index, T: now, Config: cfg.String()})
		return crash
	}
	if startErr != nil {
		inst.Close()
		return startErr
	}
	if t.inst != nil {
		t.inst.Close()
	}
	t.inst = inst
	t.startup = tr.Map()
	return nil
}

// takeCrashes hands out the records of the crashes boots hit, in order,
// and forgets them.
func (t *netTarget) takeCrashes() []CrashRec {
	recs := t.crashes
	t.crashes = nil
	return recs
}

// Run implements fuzz.Target: one execution = one fresh protocol session
// carrying the message sequence over the link.
func (t *netTarget) Run(seq [][]byte, tr *coverage.Trace) *bugs.Crash {
	t.inst.SetTrace(tr)
	t.inst.NewSession()
	return bugs.Capture(func() {
		for _, msg := range seq {
			if t.link.deliver() {
				t.inst.Message(msg)
			}
		}
	})
}

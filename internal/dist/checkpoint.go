package dist

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"sort"

	"cmfuzz/internal/bugs"
	"cmfuzz/internal/core/schedule"
	"cmfuzz/internal/coverage"
	"cmfuzz/internal/fuzz"
	"cmfuzz/internal/parallel"
	"cmfuzz/internal/telemetry"
	"cmfuzz/internal/wire"
)

// Checkpoint / Restore serialize a paused campaign between Advance
// slices, so a coordinator restart resumes with artifacts byte-identical
// to an uninterrupted run.
//
// The checkpoint stores two kinds of state. Coordinator-owned replay
// state (clocks, union map, series, ledger, telemetry, corpus mirrors,
// pending seeds, drained-but-unreplayed lease batches) is serialized
// directly. Worker-owned engine state (fuzzing engine, RNG, saturation
// tracker, booted target) is NOT serialized — it is reconstructed by
// deterministic replay: Restore re-boots each instance at the clock of
// its last (re)boot and re-sends its journaled leases (same boundaries,
// same seed imports, same horizon), discarding the replies. Every
// instance is a deterministic function of its spec and lease history,
// so the rebuilt engines land in the exact state the checkpointed
// batches were produced from, and the campaign continues as if never
// interrupted.
const checkpointMagic = "cmfuzz-checkpoint"
const checkpointVersion = 1

// Checkpoint drains every in-flight lease reply and serializes the
// campaign's replay state. The coordinator remains live: Advance can
// continue from exactly this point, and the checkpoint can equally be
// Restored onto a fresh coordinator (same subject, same workers or
// different ones) after a crash.
func (c *Coordinator) Checkpoint() ([]byte, error) {
	st := c.st
	if st == nil {
		return nil, errors.New("dist: coordinator not started")
	}
	if c.finished || c.closed {
		return nil, errors.New("dist: campaign already finished")
	}
	if err := c.drainInflight(); err != nil {
		return nil, err
	}

	w := wire.NewWriter(1 << 16)
	w.String16(checkpointMagic)
	w.U8(checkpointVersion)
	w.String16(st.res.Subject.Protocol)
	encodeOptions(w, st.opts)

	// Plan-derived Result fields. Stored so Restore never re-runs
	// host.Plan — planning probes the target and emits group telemetry,
	// both of which already happened before the checkpoint.
	w.U32(uint32(st.res.ModelEntities))
	w.U32(uint32(st.res.RelationEdges))
	w.U32(uint32(st.res.Probes))
	w.U16(uint16(len(st.res.Groups)))
	for _, g := range st.res.Groups {
		putStrings(w, g.Members)
	}
	w.U16(uint16(len(st.specs)))
	for _, s := range st.specs {
		encodeSpec(w, s)
	}

	// Global replay state: union map, series, ledger, telemetry.
	w.Bytes32(coverage.EncodeDelta(st.global, nil))
	pts := st.res.Series.Points()
	w.U32(uint32(len(pts)))
	for _, p := range pts {
		putF64(w, p.T)
		w.U32(uint32(p.Count))
	}
	reports := st.res.Bugs.Unique()
	w.U16(uint16(len(reports)))
	for i := range reports {
		rep := &reports[i]
		putCrash(w, &rep.Crash)
		w.U32(uint32(rep.Instance))
		putF64(w, rep.Time)
		w.String32(rep.Config)
		w.U32(uint32(rep.Count))
	}
	var events bytes.Buffer
	if err := st.tel.WriteJSONL(&events); err != nil {
		return nil, err
	}
	w.Bytes32(events.Bytes())
	counters := st.tel.Counters()
	names := make([]string, 0, len(counters))
	for name := range counters {
		names = append(names, name)
	}
	sort.Strings(names)
	w.U16(uint16(len(names)))
	for _, name := range names {
		w.String16(name)
		putI64(w, int64(counters[name]))
	}

	putF64(w, c.watermark)
	putF64(w, c.lastSample)
	putI64(w, c.syncBytes.Load())
	putI64(w, c.workerDeaths.Load())
	putI64(w, c.reassignments.Load())

	// Per-instance replay state.
	w.U32(uint32(len(st.specs)))
	for i := range st.specs {
		putF64(w, st.clock[i])
		putF64(w, st.nextSync[i])
		putF64(w, st.resumeClock[i])
		w.U32(uint32(st.crashes[i]))
		w.U32(uint32(st.muts[i]))
		w.U32(uint32(st.execs[i]))
		w.U32(uint32(st.curCov[i]))
		w.U32(uint32(st.startEdges[i]))
		w.String32(st.curConfig[i])
		mirror := make([]fuzz.Seed, st.mirror[i].Len())
		for j := range mirror {
			mirror[j] = st.mirror[i].At(j)
		}
		putSeeds(w, mirror)
		putSeeds(w, st.pending[i])
		w.U32(uint32(len(st.journal[i])))
		for _, j := range st.journal[i] {
			putF64(w, j.Boundary)
			putSeeds(w, j.Seeds)
		}
		remaining := st.batch[i][st.pos[i]:]
		w.U32(uint32(len(remaining)))
		for j := range remaining {
			putLeaseRecord(w, &remaining[j])
		}
	}
	c.checkpointed = true
	return w.Bytes(), nil
}

// checkpoint is the decoded form of a serialized campaign.
type checkpoint struct {
	protocol      string
	opts          parallel.Options
	modelEntities int
	relationEdges int
	probes        int
	groups        []schedule.Group
	specs         []parallel.InstanceSpec
	globalDelta   []byte
	series        []coverage.Point
	reports       []bugs.Report
	events        []telemetry.Event
	counters      telemetry.Counters
	watermark     float64
	lastSample    float64
	syncBytes     int64
	workerDeaths  int64
	reassignments int64
	inst          []checkpointInstance
}

type checkpointInstance struct {
	clock       float64
	nextSync    float64
	resumeClock float64
	crashes     int
	muts        int
	execs       int
	curCov      int
	startEdges  int
	curConfig   string
	mirror      []fuzz.Seed
	pending     []fuzz.Seed
	journal     []leaseJournal
	remaining   []leaseRecord
}

// ValidateCheckpoint reports whether data parses as a structurally
// complete checkpoint. The fleet recovery scan uses it to quarantine a
// corrupt or truncated checkpoint.bin (a crash mid-write, a bad disk)
// instead of aborting recovery for every sibling campaign.
func ValidateCheckpoint(data []byte) error {
	_, err := decodeCheckpoint(data)
	return err
}

func decodeCheckpoint(data []byte) (*checkpoint, error) {
	r := wire.NewReader(data)
	if magic := r.String16(); r.Err() != nil || magic != checkpointMagic {
		return nil, errors.New("dist: not a checkpoint")
	}
	if v := r.U8(); r.Err() != nil || v != checkpointVersion {
		return nil, fmt.Errorf("dist: checkpoint version %d, want %d", v, checkpointVersion)
	}
	ck := &checkpoint{
		protocol: r.String16(),
		opts:     decodeOptions(r),
	}
	ck.modelEntities = int(r.U32())
	ck.relationEdges = int(r.U32())
	ck.probes = int(r.U32())
	ngroups := int(r.U16())
	for i := 0; i < ngroups && r.Err() == nil; i++ {
		ck.groups = append(ck.groups, schedule.Group{Members: getStrings(r)})
	}
	nspecs := int(r.U16())
	for i := 0; i < nspecs && r.Err() == nil; i++ {
		ck.specs = append(ck.specs, decodeSpec(r))
	}
	ck.globalDelta = r.Bytes32()
	npts := int(r.U32())
	for i := 0; i < npts && r.Err() == nil; i++ {
		ck.series = append(ck.series, coverage.Point{T: getF64(r), Count: int(r.U32())})
	}
	nreports := int(r.U16())
	for i := 0; i < nreports && r.Err() == nil; i++ {
		ck.reports = append(ck.reports, bugs.Report{
			Crash:    getCrash(r),
			Instance: int(int32(r.U32())),
			Time:     getF64(r),
			Config:   r.String32(),
			Count:    int(r.U32()),
		})
	}
	eventsRaw := r.Bytes32()
	if r.Err() == nil {
		events, err := telemetry.ParseJSONL(bytes.NewReader(eventsRaw))
		if err != nil {
			return nil, err
		}
		ck.events = events
	}
	ck.counters = make(telemetry.Counters)
	ncounters := int(r.U16())
	for i := 0; i < ncounters && r.Err() == nil; i++ {
		name := r.String16()
		ck.counters[name] = int(getI64(r))
	}
	ck.watermark = getF64(r)
	ck.lastSample = getF64(r)
	ck.syncBytes = getI64(r)
	ck.workerDeaths = getI64(r)
	ck.reassignments = getI64(r)
	ninst := int(r.U32())
	for i := 0; i < ninst && r.Err() == nil; i++ {
		ci := checkpointInstance{
			clock:       getF64(r),
			nextSync:    getF64(r),
			resumeClock: getF64(r),
			crashes:     int(r.U32()),
			muts:        int(r.U32()),
			execs:       int(r.U32()),
			curCov:      int(r.U32()),
			startEdges:  int(r.U32()),
			curConfig:   r.String32(),
		}
		ci.mirror = getSeeds(r)
		ci.pending = getSeeds(r)
		njournal := int(r.U32())
		for j := 0; j < njournal && r.Err() == nil; j++ {
			ci.journal = append(ci.journal, leaseJournal{Boundary: getF64(r), Seeds: getSeeds(r)})
		}
		nrem := int(r.U32())
		for j := 0; j < nrem && r.Err() == nil; j++ {
			flags := r.U8()
			if flags&^byte(leaseFlagsKnown) != 0 {
				return nil, ErrProto
			}
			rec, err := getLeaseRecord(r, flags)
			if err != nil {
				return nil, err
			}
			ci.remaining = append(ci.remaining, rec)
		}
		ck.inst = append(ck.inst, ci)
	}
	if r.Err() != nil {
		return nil, r.Err()
	}
	if !r.Empty() {
		return nil, ErrProto
	}
	if len(ck.inst) != len(ck.specs) {
		return nil, ErrProto
	}
	return ck, nil
}

// Restore rebuilds a checkpointed campaign on a fresh coordinator: the
// pool's workers are assigned the checkpointed plan, each instance is
// re-booted at the clock of its last (re)boot and fast-forwarded by
// replaying its journaled leases, and the coordinator's replay state
// (clocks, union map, series, ledger, telemetry, mirrors, unreplayed
// batches) is restored verbatim. Subsequent Advance/Finish calls produce
// artifacts byte-identical to a run that was never interrupted.
//
// The caller's Telemetry option is ignored — the checkpointed event log
// and counters are restored into a fresh recorder (Recorder returns it).
// Trace, Progress, and Label come from the caller's options; they feed
// operator-facing surfaces, not artifacts.
//
// A worker failure during Restore is an error: reassignment recovery
// starts once the campaign is advancing again.
func (c *Coordinator) Restore(ctx context.Context, data []byte) error {
	if c.st != nil {
		return errors.New("dist: coordinator already started")
	}
	ck, err := decodeCheckpoint(data)
	if err != nil {
		return err
	}
	info := c.sub.Info()
	if ck.protocol != info.Protocol {
		return fmt.Errorf("dist: checkpoint is for subject %q, coordinator has %q", ck.protocol, info.Protocol)
	}
	workers, err := c.workerSet()
	if err != nil {
		return err
	}

	opts := ck.opts
	opts.Telemetry = telemetry.Restore(ck.events, ck.counters)
	opts.Trace = c.opts.Trace
	opts.Progress = c.opts.Progress
	opts.Label = c.opts.Label
	host, err := parallel.NewHost(c.sub, opts)
	if err != nil {
		return err
	}
	opts = host.Opts
	tel := opts.Telemetry
	prog := opts.Progress
	if opts.Label == "" {
		opts.Label = opts.Mode.String()
	}
	prog.StartRun(opts.Label, opts.Mode.String(), info.Protocol, opts.VirtualHours*3600, opts.Instances)
	c.endRun = func() { prog.EndRun(opts.Label) }

	res := &parallel.Result{
		Mode:          opts.Mode,
		Subject:       info,
		Series:        &coverage.Series{},
		Bugs:          bugs.RestoreLedger(ck.reports),
		ModelEntities: ck.modelEntities,
		RelationEdges: ck.relationEdges,
		Probes:        ck.probes,
		Groups:        ck.groups,
	}
	// Observe collapses consecutive equal counts, so the stored points
	// (which have pairwise-different consecutive counts by construction)
	// rebuild the series' internal state exactly.
	for _, p := range ck.series {
		res.Series.Observe(p.T, p.Count)
	}

	global := coverage.NewMap()
	if _, err := global.ApplyDelta(ck.globalDelta); err != nil {
		return err
	}

	if err := ctx.Err(); err != nil {
		return err
	}

	c.tracer = opts.Trace.Tracer()
	wireOpts := opts
	wireOpts.Telemetry = nil
	wireOpts.Trace = nil
	wireOpts.Progress = nil
	wireOpts.Label = ""
	assignPayload := encodeAssign(assign{Campaign: c.campaign, Subject: info.Protocol, Trace: opts.Trace != nil, LiveSpec: liveSpecOf(c.sub), Opts: wireOpts, Specs: ck.specs})
	for _, wc := range workers {
		if _, err := wc.rpc(msgAssign, assignPayload, msgAssignOK, c.cfg.RPCTimeout); err != nil {
			return fmt.Errorf("dist: assign to worker %q: %w", wc.name, err)
		}
	}
	if c.ownPool {
		c.pool.StartHeartbeats()
	}

	st := c.newRunState(host, opts, ck.specs, workers, res, global, tel)
	c.st = st
	for i := range ck.specs {
		ci := &ck.inst[i]
		st.clock[i] = ci.clock
		st.nextSync[i] = ci.nextSync
		st.resumeClock[i] = ci.resumeClock
		st.crashes[i] = ci.crashes
		st.muts[i] = ci.muts
		st.execs[i] = ci.execs
		st.curCov[i] = ci.curCov
		st.startEdges[i] = ci.startEdges
		st.curConfig[i] = ci.curConfig
		for _, s := range ci.mirror {
			st.mirror[i].Add(s)
		}
		st.pending[i] = ci.pending
		st.journal[i] = ci.journal
		st.batch[i] = ci.remaining

		if err := ctx.Err(); err != nil {
			return err
		}
		// Deterministic fast-forward: quiet re-boot at the last boot
		// clock (startup crashes and coverage are already in the
		// restored ledger and global map), then replay the journaled
		// leases to rebuild the worker-side engine, corpus, RNG, and
		// saturation state. Replies are discarded — their records are
		// either already replayed into the restored state or stored in
		// the remaining batch.
		wc := c.alive(i % len(workers))
		if wc == nil {
			return errors.New("dist: no live workers left")
		}
		if err := c.bootQuiet(wc, st, i, ci.resumeClock); err != nil {
			return fmt.Errorf("dist: restore boot of instance %d: %w", i, err)
		}
		if prog.Enabled() {
			prog.SetInstanceConfig(opts.Label, i, st.curConfig[i])
		}
		for _, j := range ci.journal {
			l := lease{Campaign: c.campaign, Index: i, Boundary: j.Boundary, Horizon: st.horizon, Seeds: j.Seeds}
			if _, err := wc.rpc(msgLease, encodeLease(l), msgLeaseResult, c.cfg.RPCTimeout); err != nil {
				return fmt.Errorf("dist: restore replay of instance %d: %w", i, err)
			}
		}
	}

	c.watermark = ck.watermark
	c.lastSample = ck.lastSample
	c.minSampleGap = opts.SampleEvery / 10
	c.syncBytes.Store(ck.syncBytes)
	c.workerDeaths.Store(ck.workerDeaths)
	c.reassignments.Store(ck.reassignments)
	c.checkpointed = true

	c.startLoop(st)
	// Every instance left mid-campaign has unreplayed records (a batch
	// drains only right before its next lease is dispatched); instances
	// that already ran out the horizon need nothing. The dispatch here
	// is a safety net for the empty-batch edge.
	for i := range st.specs {
		if len(st.batch[i]) == 0 && st.clock[i] < st.horizon {
			c.dispatch(st, i)
		}
	}
	return nil
}

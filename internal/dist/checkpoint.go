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
// The checkpoint stores two kinds of state. Coordinator-side state — the
// event loop's (clocks, union map, series, ledger, telemetry) and the
// replay source's (corpus mirrors, pending seeds, drained-but-unreplayed
// lease batches) — is serialized directly. Worker-owned engine state
// (fuzzing engine, RNG, saturation tracker, booted target) is NOT
// serialized — it is reconstructed by deterministic replay: Restore
// re-boots every instance at the clock of its last (re)boot and then
// re-sends their journaled leases (same boundaries, same seed imports,
// same horizon) down the path every lease takes, all instances at once,
// discarding the replies (replay). Every instance is a deterministic
// function of its spec and lease history, so the rebuilt engines land in
// the exact state the checkpointed batches were produced from, and the
// campaign continues as if never interrupted.
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

	l := c.loop
	blob, err := encodeCheckpoint(&checkpoint{
		protocol:      l.Res.Subject.Protocol,
		opts:          l.Opts,
		specs:         st.specs,
		res:           l.Res,
		union:         l.Union,
		tel:           l.Opts.Telemetry,
		loop:          l.LoopState,
		syncBytes:     c.syncBytes.Load(),
		workerDeaths:  c.workerDeaths.Load(),
		reassignments: c.reassignments.Load(),
		inst:          st.inst,
	})
	if err != nil {
		return nil, err
	}
	c.checkpointed = true
	return blob, nil
}

// encodeCheckpoint is decodeCheckpoint's inverse.
func encodeCheckpoint(ck *checkpoint) ([]byte, error) {
	res, tel := ck.res, ck.tel
	w := wire.NewWriter(1 << 16)
	w.String16(checkpointMagic)
	w.U8(checkpointVersion)
	w.String16(ck.protocol)
	encodeOptions(w, ck.opts)

	// Plan-derived Result fields. Stored so Restore never re-runs
	// host.Plan — planning probes the target and emits group telemetry,
	// both of which already happened before the checkpoint.
	w.U32(uint32(res.ModelEntities))
	w.U32(uint32(res.RelationEdges))
	w.U32(uint32(res.Probes))
	w.U16(uint16(len(res.Groups)))
	for _, g := range res.Groups {
		putStrings(w, g.Members)
	}
	w.U16(uint16(len(ck.specs)))
	for _, s := range ck.specs {
		encodeSpec(w, s)
	}

	// Global replay state: union map, series, ledger, telemetry.
	w.Bytes32(coverage.EncodeDelta(ck.union, nil))
	pts := res.Series.Points()
	w.U32(uint32(len(pts)))
	for _, p := range pts {
		putF64(w, p.T)
		w.U32(uint32(p.Count))
	}
	reports := res.Bugs.Unique()
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
	if err := tel.WriteJSONL(&events); err != nil {
		return nil, err
	}
	w.Bytes32(events.Bytes())
	counters := tel.Counters()
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

	putF64(w, ck.loop.Watermark)
	putF64(w, ck.loop.LastSample)
	putI64(w, ck.syncBytes)
	putI64(w, ck.workerDeaths)
	putI64(w, ck.reassignments)

	// Per-instance state: the loop's clock and sync schedule, then the
	// replica.
	w.U32(uint32(len(ck.inst)))
	for i := range ck.inst {
		in := &ck.inst[i]
		putF64(w, ck.loop.Clock[i])
		putF64(w, ck.loop.NextSync[i])
		putF64(w, in.resumeClock)
		w.U32(uint32(in.crashes))
		w.U32(uint32(in.muts))
		w.U32(uint32(in.execs))
		w.U32(uint32(in.curCov))
		w.U32(uint32(in.startEdges))
		w.String32(in.curConfig)
		mirror := make([]fuzz.Seed, in.mirror.Len())
		for j := range mirror {
			mirror[j] = in.mirror.At(j)
		}
		putSeeds(w, mirror)
		putSeeds(w, in.pending)
		w.U32(uint32(len(in.journal)))
		for _, j := range in.journal {
			putF64(w, j.Boundary)
			putSeeds(w, j.Seeds)
		}
		remaining := in.batch[in.pos:]
		w.U32(uint32(len(remaining)))
		for j := range remaining {
			appendLeaseStep(w, &remaining[j])
		}
	}
	return w.Bytes(), nil
}

// checkpoint is a decoded campaign, in the shapes Restore hands on: the
// loop's Result so far (plan figures, series, ledger), union map,
// recorder and position, and the replay source's replicas.
type checkpoint struct {
	protocol      string
	opts          parallel.Options
	specs         []parallel.InstanceSpec
	res           *parallel.Result
	union         *coverage.Map
	tel           *telemetry.Recorder
	loop          parallel.LoopState
	syncBytes     int64
	workerDeaths  int64
	reassignments int64
	inst          []replica
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
		union:    coverage.NewMap(),
	}
	// Plan-derived figures come from the checkpoint: Restore never
	// re-runs the plan.
	res := &parallel.Result{
		Series:        &coverage.Series{},
		ModelEntities: int(r.U32()),
		RelationEdges: int(r.U32()),
		Probes:        int(r.U32()),
	}
	ck.res = res
	ngroups := int(r.U16())
	for i := 0; i < ngroups && r.Err() == nil; i++ {
		res.Groups = append(res.Groups, schedule.Group{Members: getStrings(r)})
	}
	nspecs := int(r.U16())
	for i := 0; i < nspecs && r.Err() == nil; i++ {
		ck.specs = append(ck.specs, decodeSpec(r))
	}
	if delta := r.Bytes32(); r.Err() == nil {
		if _, err := ck.union.ApplyDelta(delta); err != nil {
			return nil, err
		}
	}
	// Observe collapses consecutive equal counts, so the stored points
	// (which have pairwise-different consecutive counts by construction)
	// rebuild the series' internal state exactly.
	npts := int(r.U32())
	for i := 0; i < npts && r.Err() == nil; i++ {
		res.Series.Observe(getF64(r), int(r.U32()))
	}
	var reports []bugs.Report
	nreports := int(r.U16())
	for i := 0; i < nreports && r.Err() == nil; i++ {
		reports = append(reports, bugs.Report{
			Crash:    getCrash(r),
			Instance: int(int32(r.U32())),
			Time:     getF64(r),
			Config:   r.String32(),
			Count:    int(r.U32()),
		})
	}
	res.Bugs = bugs.RestoreLedger(reports)
	var events []telemetry.Event
	if raw := r.Bytes32(); r.Err() == nil {
		var err error
		if events, err = telemetry.ParseJSONL(bytes.NewReader(raw)); err != nil {
			return nil, err
		}
	}
	counters := make(telemetry.Counters)
	ncounters := int(r.U16())
	for i := 0; i < ncounters && r.Err() == nil; i++ {
		name := r.String16()
		counters[name] = int(getI64(r))
	}
	ck.tel = telemetry.Restore(events, counters)
	ck.loop.Watermark = getF64(r)
	ck.loop.LastSample = getF64(r)
	ck.syncBytes = getI64(r)
	ck.workerDeaths = getI64(r)
	ck.reassignments = getI64(r)
	ninst := int(r.U32())
	for i := 0; i < ninst && r.Err() == nil; i++ {
		ck.loop.Clock = append(ck.loop.Clock, getF64(r))
		ck.loop.NextSync = append(ck.loop.NextSync, getF64(r))
		in := replica{
			resumeClock: getF64(r),
			crashes:     int(r.U32()),
			muts:        int(r.U32()),
			execs:       int(r.U32()),
			curCov:      int(r.U32()),
			startEdges:  int(r.U32()),
			curConfig:   r.String32(),
			mirror:      fuzz.NewCorpus(0),
		}
		for _, s := range getSeeds(r) {
			in.mirror.Add(s)
		}
		in.pending = getSeeds(r)
		njournal := int(r.U32())
		for j := 0; j < njournal && r.Err() == nil; j++ {
			in.journal = append(in.journal, leaseJournal{Boundary: getF64(r), Seeds: getSeeds(r)})
		}
		nrem := int(r.U32())
		for j := 0; j < nrem && r.Err() == nil; j++ {
			rec, err := getLeaseRecord(r, r.U8())
			if err != nil {
				return nil, err
			}
			in.batch = append(in.batch, rec)
		}
		ck.inst = append(ck.inst, in)
	}
	if r.Err() != nil {
		return nil, r.Err()
	}
	if !r.Empty() {
		return nil, ErrProto
	}
	if len(ck.inst) != len(ck.specs) || len(ck.inst) == 0 {
		return nil, ErrProto
	}
	return ck, nil
}

// Restore rebuilds a checkpointed campaign on a fresh coordinator, as
// described above: the pool's workers are assigned the checkpointed
// plan, the coordinator-side state is restored verbatim and every
// instance is fast-forwarded. Subsequent Advance/Finish calls produce
// artifacts byte-identical to a run that was never interrupted.
//
// The caller's Telemetry option is ignored — the checkpointed event log
// and counters are restored into a fresh recorder (Recorder returns it).
// Trace, Progress, and Label come from the caller's options; they feed
// operator-facing surfaces, not artifacts.
//
// A worker that dies during Restore costs the campaign nothing: what it
// held is re-booted on a survivor and replayed again, and the death shows
// in Stats and the Observer but not in the telemetry artifacts are
// written from.
func (c *Coordinator) Restore(ctx context.Context, data []byte) error {
	if c.st != nil {
		return errors.New("dist: coordinator already started")
	}
	ck, err := decodeCheckpoint(data)
	if err != nil {
		return err
	}
	if protocol := c.sub.Info().Protocol; ck.protocol != protocol {
		return fmt.Errorf("dist: checkpoint is for subject %q, coordinator has %q", ck.protocol, protocol)
	}
	workers, err := c.workerSet()
	if err != nil {
		return err
	}

	opts := ck.opts
	opts.Telemetry = ck.tel
	opts.Trace = c.opts.Trace
	opts.Progress = c.opts.Progress
	opts.Label = c.opts.Label
	host, err := parallel.NewHost(c.sub, opts)
	if err != nil {
		return err
	}
	if err := ctx.Err(); err != nil {
		return err
	}
	c.syncBytes.Store(ck.syncBytes)
	c.workerDeaths.Store(ck.workerDeaths)
	c.reassignments.Store(ck.reassignments)
	c.checkpointed = true // until open has to dispatch a lease
	c.loop = parallel.ResumeLoop(host, ck.res, ck.union, ck.loop)
	return c.open(ctx, workers, ck.specs, ck.inst, true)
}

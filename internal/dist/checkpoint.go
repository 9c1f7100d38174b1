package dist

import (
	"bytes"
	"context"
	"errors"
	"fmt"

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
// replay source's (pending seeds, drained-but-unreplayed lease batches,
// the lease journals) — is serialized directly. Worker-owned engine
// state (fuzzing engine, RNG, saturation tracker, booted target) is NOT
// serialized — it is reconstructed by deterministic replay: Restore
// boots every instance at clock 0 and then re-sends their journaled
// leases (same boundaries, same seed imports, same horizon) down the
// path every lease takes, all instances at once, counting the replies
// (replay, which also rebuilds an instance whose worker died). Every
// instance is a deterministic function of its spec and lease history,
// so the rebuilt engines land in the exact state the checkpointed
// batches were produced from, and the campaign continues as if never
// interrupted.
//
// Since version 2 the corpus mirrors are not stored either: the leases
// replay re-sends carry every import and their replies every new-edge
// seed's digest (and the messages of those a sync may export), so
// replay rebuilds each mirror from them. Version 1 stored the mirrors;
// such a checkpoint still restores, and its mirrors must equal the
// rebuilt ones, digest for digest. Version 3 stores the unreplayed
// records in the lease reply's layout of wire version 10: a new-edges
// record carries its seed's digest, and the messages only if the record
// shipped them. Versions 1 and 2 stored every seed's messages, which
// still restore, as records that shipped them.
const checkpointMagic = "cmfuzz-checkpoint"
const checkpointVersion = 3

// digestVersion is the first checkpoint version whose records carry
// digests.
const digestVersion = 3

// Checkpoint drains every in-flight lease reply and serializes the
// campaign's replay state. The coordinator remains live: Advance can
// continue from exactly this point, and the checkpoint can equally be
// Restored onto a fresh coordinator (same subject, same workers or
// different ones) after a crash.
func (c *Coordinator) Checkpoint() ([]byte, error) {
	if c.src == nil {
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
		specs:         c.src.Specs,
		res:           l.Res,
		union:         l.Union,
		tel:           l.Opts.Telemetry,
		loop:          l.LoopState,
		syncBytes:     c.syncBytes.Load(),
		workerDeaths:  c.workerDeaths.Load(),
		reassignments: c.reassignments.Load(),
		replay:        c.src.Inst,
		inst:          c.inst,
		resume:        make([]float64, len(c.inst)),
	})
	if err != nil {
		return nil, err
	}
	c.checkpointed, c.ckReplayed = true, c.src.Replayed
	return blob, nil
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
	replay        []parallel.Replica
	inst          []replica
	resume        []float64 // where each journal starts: 0 (the boot) since wire version 9
}

// encodeCheckpoint and decodeCheckpoint put the magic and version in
// front of the checkpoint's fields.
func encodeCheckpoint(ck *checkpoint) ([]byte, error) {
	c := codec{w: wire.NewWriter(1 << 16), version: checkpointVersion}
	c.w.String16(checkpointMagic)
	c.w.U8(checkpointVersion)
	c.checkpoint(ck)
	return c.w.Bytes(), c.err
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
	v := r.U8()
	if r.Err() != nil || v < 1 || v > checkpointVersion {
		return nil, fmt.Errorf("dist: checkpoint version %d, want 1 to %d", v, checkpointVersion)
	}
	ck, err := unmarshal(r.Rest(), func(c *codec, ck *checkpoint) {
		c.version = v
		c.checkpoint(ck)
	})
	if err != nil {
		return nil, err
	}
	return &ck, nil
}

// checkpoint visits a paused campaign. The live values in it (union map,
// series, ledger, recorder; a version-1 corpus mirror) travel flat:
// encoding flattens them first, and decoding rebuilds them from what was
// read — the only decoding here that is more than a read.
func (c *codec) checkpoint(ck *checkpoint) {
	str16(c, &ck.protocol)
	c.options(&ck.opts)

	// Plan-derived Result fields. Stored so Restore never re-runs
	// host.Plan — planning probes the target and emits group telemetry,
	// both of which already happened before the checkpoint.
	opt(c, &ck.res, (*codec).plan)
	list[uint16](c, &ck.specs, (*codec).spec)

	// Global replay state: union map, series, ledger, telemetry.
	var union, events []byte
	var pts []coverage.Point
	var reports []bugs.Report
	var counters telemetry.Counters
	if !c.decoding() {
		var buf bytes.Buffer
		c.fail(ck.tel.WriteJSONL(&buf))
		union, pts, reports = coverage.EncodeDelta(ck.union, nil), ck.res.Series.Points(), ck.res.Bugs.Unique()
		events, counters = buf.Bytes(), ck.tel.Counters()
	}
	bytes32(c, &union)
	list[uint32](c, &pts, (*codec).point)
	list[uint16](c, &reports, (*codec).report)
	bytes32(c, &events)
	dict(c, &counters, i64[int])
	if c.decoding() && c.ok() {
		ck.union = coverage.NewMap()
		_, err := ck.union.ApplyDelta(union)
		c.fail(err)
		// Observe collapses consecutive equal counts, so the stored points
		// (which have pairwise-different consecutive counts by construction)
		// rebuild the series' internal state exactly.
		ck.res.Series = &coverage.Series{}
		for _, p := range pts {
			ck.res.Series.Observe(p.T, p.Count)
		}
		ck.res.Bugs = bugs.RestoreLedger(reports)
		evs, err := telemetry.ParseJSONL(bytes.NewReader(events))
		c.fail(err)
		ck.tel = telemetry.Restore(evs, counters)
	}
	f64(c, &ck.loop.Watermark)
	f64(c, &ck.loop.LastSample)
	i64(c, &ck.syncBytes)
	i64(c, &ck.workerDeaths)
	i64(c, &ck.reassignments)

	// Per-instance state: the loop's clock and sync schedule, where the
	// journal starts, then the replica.
	n := len(ck.inst)
	u32(c, &n)
	for i := 0; i < n && c.ok(); i++ {
		if c.decoding() {
			ck.loop.Clock = append(ck.loop.Clock, 0)
			ck.loop.NextSync = append(ck.loop.NextSync, 0)
			ck.replay = append(ck.replay, parallel.Replica{})
			ck.inst = append(ck.inst, replica{})
			ck.resume = append(ck.resume, 0)
		}
		f64(c, &ck.loop.Clock[i])
		f64(c, &ck.loop.NextSync[i])
		f64(c, &ck.resume[i])
		c.replica(&ck.replay[i], &ck.inst[i])
	}
	if c.ok() && (len(ck.inst) != len(ck.specs) || len(ck.inst) == 0) {
		c.fail(ErrProto)
	}
}

func (c *codec) plan(res *parallel.Result) {
	u32(c, &res.ModelEntities)
	u32(c, &res.RelationEdges)
	u32(c, &res.Probes)
	list[uint16](c, &res.Groups, (*codec).group)
}

func (c *codec) group(g *schedule.Group) { strs(c, &g.Members) }

func (c *codec) point(p *coverage.Point) {
	f64(c, &p.T)
	u32(c, &p.Count)
}

func (c *codec) report(r *bugs.Report) {
	c.crash(&r.Crash)
	i32(c, &r.Instance)
	f64(c, &r.Time)
	str32(c, &r.Config)
	u32(c, &r.Count)
}

// replica visits an instance's replay state and its lease history. Of
// the batch, only the drained records not yet replayed are kept, and a
// restored replica replays them from its start. Version 1 stored the
// corpus mirror too, as its seeds in order, which a fresh mirror
// rebuilds it from (only a mirror holding every seed's messages encodes
// so); a replica of a later version decodes with no mirror, and replay
// rebuilds it.
func (c *codec) replica(r *parallel.Replica, in *replica) {
	u32(c, &r.Crashes)
	u32(c, &r.Muts)
	u32(c, &r.Execs)
	u32(c, &r.Coverage)
	u32(c, &r.StartEdges)
	str32(c, &r.Config)
	if c.version == 1 {
		var mirror []fuzz.Seed
		if !c.decoding() {
			mirror = make([]fuzz.Seed, r.Mirror.Len())
			for j := range mirror {
				var held bool
				if mirror[j], _, held = r.Mirror.At(j); !held {
					c.fail(errors.New("dist: a version-1 checkpoint stores whole mirrors"))
				}
			}
		}
		c.seeds(&mirror)
		if c.decoding() {
			r.Mirror = parallel.NewMirror()
			r.Mirror.Import(mirror)
		}
	}
	rest := r.Batch[r.Pos:]
	c.seeds(&r.Pending)
	list[uint32](c, &in.journal, (*codec).journal)
	list[uint32](c, &rest, (*codec).step)
	if c.decoding() {
		r.Batch = rest
	}
}

func (c *codec) journal(j *leaseJournal) {
	f64(c, &j.Boundary)
	c.seeds(&j.Seeds)
}

// Restore rebuilds a checkpointed campaign on a fresh coordinator, as
// described above: the pool's workers are assigned the checkpointed
// plan, the coordinator-side state is restored verbatim and every
// instance is fast-forwarded. Subsequent Advance/Finish calls produce
// artifacts byte-identical to a run that was never interrupted.
//
// The caller's Telemetry option is ignored — the checkpointed event log
// and counters are restored into a fresh recorder (Recorder returns it).
// Trace comes from the caller's options; it feeds an operator-facing
// surface, not artifacts.
//
// A worker that dies during Restore costs the campaign nothing: what it
// held is booted on a survivor and replayed again, as after any death,
// and the death shows in Stats and the Observer but in no artifact. A
// checkpoint in which an older build had re-booted an instance past
// clock 0 cannot be replayed, and Restore fails naming the instance.
func (c *Coordinator) Restore(ctx context.Context, data []byte) error {
	if c.src != nil {
		return errors.New("dist: coordinator already started")
	}
	ck, err := decodeCheckpoint(data)
	if err != nil {
		return err
	}
	if protocol := c.sub.Info().Protocol; ck.protocol != protocol {
		return fmt.Errorf("dist: checkpoint is for subject %q, coordinator has %q", ck.protocol, protocol)
	}
	for i, t := range ck.resume {
		if t != 0 {
			return fmt.Errorf("dist: restore of instance %d: an older build re-booted it at %.1f s after a worker death, and its journal starts there, not at its boot", i, t)
		}
	}
	workers, err := c.workerSet()
	if err != nil {
		return err
	}

	opts := ck.opts
	opts.Telemetry = ck.tel
	opts.Trace = c.opts.Trace
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
	c.loop = parallel.ResumeLoop(host, ck.res, ck.union, ck.loop)
	return c.open(ctx, workers, ck.specs, ck.replay, ck.inst, true)
}

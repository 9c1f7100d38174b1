package dist

import (
	"context"
	"errors"
	"fmt"

	"cmfuzz/internal/parallel"
	"cmfuzz/internal/telemetry"
	"cmfuzz/internal/wire"
)

// Checkpoint / Restore carry a paused campaign across a coordinator
// restart, so it finishes with artifacts byte-identical to an
// uninterrupted run.
//
// A campaign's artifacts are a pure function of its subject, its options
// and the bound it is advanced to, however the advancing is sliced. So a
// checkpoint stores those, and where the campaign stood at that bound —
// clock, union edges and replayed execs, the figures Progress reports —
// and nothing of its history: about 120 bytes at any clock. Restore
// re-runs the campaign from its start to the bound, over the path every
// campaign takes, and holds the figures it reaches to the stored ones.
// Replaying a stored history would cost about as much: it re-executes
// every instance too.
const checkpointMagic = "cmfuzz-checkpoint"
const checkpointVersion = 7

// Checkpoint serializes the campaign as the last Advance that completed
// left it (a cut-short Advance leaves the checkpoint where it was). It
// touches no worker, and the coordinator remains live: Advance can
// continue, and the checkpoint can equally be Restored onto a fresh
// coordinator (same subject, same workers or different ones) after a
// crash.
func (c *Coordinator) Checkpoint() ([]byte, error) {
	if c.src == nil {
		return nil, errors.New("dist: coordinator not started")
	}
	if c.finished || c.closed {
		return nil, errors.New("dist: campaign already finished")
	}
	return encodeCheckpoint(&checkpoint{protocol: c.loop.Res.Subject.Protocol, opts: c.loop.Opts, position: c.at}), nil
}

// checkpoint is a decoded campaign: what it is a function of, and where
// it stood.
type checkpoint struct {
	protocol string
	opts     parallel.Options
	position
}

// A position is where a completed Advance left a campaign: the highest
// bound any completed Advance was given, and the Progress figures there.
type position struct {
	bound        float64
	clock        float64
	edges, execs int
}

// encodeCheckpoint and decodeCheckpoint put the magic and version in
// front of the checkpoint's fields.
func encodeCheckpoint(ck *checkpoint) []byte {
	c := codec{w: &wire.Writer{}}
	c.w.String16(checkpointMagic)
	c.w.U8(checkpointVersion)
	c.checkpoint(ck)
	return c.w.Bytes()
}

// ValidateCheckpoint reports whether data parses as a checkpoint of the
// current version. The fleet recovery scan uses it to quarantine a
// corrupt, truncated or outdated checkpoint.bin (a crash mid-write, a
// bad disk, an older build) instead of failing its campaign's restore.
func ValidateCheckpoint(data []byte) error {
	_, err := decodeCheckpoint(data)
	return err
}

func decodeCheckpoint(data []byte) (checkpoint, error) {
	r := wire.NewReader(data)
	if magic := r.String16(); r.Err() != nil || magic != checkpointMagic {
		return checkpoint{}, errors.New("dist: not a checkpoint")
	}
	if v := r.U8(); r.Err() != nil || v != checkpointVersion {
		return checkpoint{}, fmt.Errorf("dist: checkpoint version %d, want %d", v, checkpointVersion)
	}
	return unmarshal(r.Rest(), (*codec).checkpoint)
}

// checkpoint visits a paused campaign. A bound that is negative or not a
// number names no position Advance can reach.
func (c *codec) checkpoint(ck *checkpoint) {
	str16(c, &ck.protocol)
	c.options(&ck.opts)
	f64(c, &ck.bound)
	f64(c, &ck.clock)
	u32(c, &ck.edges)
	i64(c, &ck.execs)
	if c.decoding() && !(ck.bound >= 0) {
		c.fail(ErrProto)
	}
}

// Restore re-runs a checkpointed campaign on a fresh coordinator: Start
// under the checkpoint's options, then Advance to its bound. The
// campaign must land where the checkpoint says, or Restore fails naming
// the figures of both; then the run's board entry is published.
// Subsequent Advance/Finish calls produce artifacts byte-identical to a
// run that was never interrupted.
//
// Telemetry, Trace and Concurrency come from the coordinator's own
// options (a checkpoint carries none of them), and a coordinator
// without a recorder gets a fresh one (Recorder returns it): the re-run
// records the campaign's events from its start.
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
	ck.opts.Telemetry, ck.opts.Trace, ck.opts.Concurrency = c.opts.Telemetry, c.opts.Trace, c.opts.Concurrency
	if ck.opts.Telemetry == nil {
		ck.opts.Telemetry = telemetry.New()
	}
	c.opts = ck.opts
	if err := c.Start(ctx); err != nil {
		return err
	}
	if err := c.Advance(ctx, ck.bound); err != nil {
		return err
	}
	if got := c.at; got != ck.position {
		return fmt.Errorf("dist: restore re-ran to clock %v with %d edges and %d execs; the checkpoint has clock %v with %d edges and %d execs",
			got.clock, got.edges, got.execs, ck.clock, ck.edges, ck.execs)
	}
	c.loop.Publish()
	return nil
}

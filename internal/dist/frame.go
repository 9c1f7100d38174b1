// Package dist runs a parallel fuzzing campaign across worker processes.
//
// A coordinator owns everything global — the scheduling plan and the
// virtual-clock event loop (parallel.Loop) with its union coverage map,
// sampled series, bug ledger, and telemetry — while workers own whole
// instances (engine, booted target, mutation RNG, saturation tracker)
// and execute the exact same per-instance code the in-process campaign
// uses (parallel.Host / parallel.Instance).
//
// Workers run autonomously between scheduler touchpoints: the
// coordinator ships a lease per instance (imported seeds plus a
// virtual-clock budget up to the next sync boundary or the campaign
// horizon) and the worker executes the whole batch locally, streaming
// back one consolidated reply carrying every step's coverage delta,
// crash record, and saturation/mutation outcome, and of every corpus
// addition its digest, with the messages only when a sync may export
// the seed (fuzz.Corpus.ExportFloor). The coordinator is the transport
// of the event loop's one source (parallel.LeaseSource), which replays
// those records in virtual-clock order and computes seed-sync exports
// from per-instance corpus mirrors. parallel.Run is the same loop over
// the same source, so the
// two produce byte-identical Results for the same seed — same coverage
// series, same ledger order, same counters —
// while a distributed campaign pays one RPC round-trip per sync
// interval instead of one per engine step.
//
// Coverage travels as deltas (coverage.EncodeDelta over dirty words
// only), so lease payloads are proportional to newly found edges, not
// to the 64 Ki map.
//
// Failure handling is first-class: workers heartbeat, every RPC carries
// a deadline, and when a worker dies each instance whose lease it lost
// is booted on a survivor and replayed through its lease journal
// before the lost lease is sent again. A lease reply is all-or-nothing, so the loop replayed
// none of the lost one, and the campaign ends byte-identical to one that
// lost no worker; the death costs wall time only.
package dist

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
)

// Frame layout: u32 big-endian length (of everything after it), u8
// message type, u32 request id, payload. A reply echoes its request's
// id, which is what lets one connection carry many requests at once:
// the coordinator routes each reply to whoever is waiting for that id,
// in whatever order the worker's lanes finish. Hello, Welcome and
// Shutdown have no reply and carry id 0. The length guard bounds a
// hostile or corrupt peer to maxFrame before any allocation happens.
const (
	maxFrame    = 64 << 20
	frameHeader = 9 // length + type + id
)

// protocolVersion gates the Hello/Welcome handshake; coordinator and
// worker must agree exactly. Version 2 is the lease protocol; version 3
// namespaces every instance-addressed message with a campaign id, so
// one worker can host instances from many concurrent campaigns (the
// fleet service), and adds the Release RPC that retires one campaign's
// instances without tearing the connection down. Version 4 adds
// cross-process tracing: Assign carries a Trace flag, and every lease
// reply ends with a span-record section (empty when tracing is off)
// plus the worker's tracer clock, so the coordinator can stitch worker
// spans into one aligned Chrome trace. Version 5 adds live targets:
// Assign carries an inline JSON live-target spec (empty for built-in
// subjects) and the options gain the link-impairment knobs. Version 6
// lets a step record carry the link latency the step charged to its
// instance's clock, so the coordinator's clocks follow the workers'
// under Options.LinkLatency*. Version 7 puts a request id in the frame
// header (payloads are untouched), so a worker can execute leases on
// every core and reply as each finishes. Version 8 retires Finalize and
// its InstanceResult reply: a campaign's instance summaries are the
// coordinator's replayed counters, and a version-7 coordinator would
// still ask a worker's engine for them. Version 9 replays a lost
// instance's journal after a worker's death: every boot is at clock 0,
// and workers ignore Boot's resume clock, which a version-8 coordinator
// still sets to re-boot a lost instance where it was. Version 10 sends a
// new-edges seed's messages only if a sync may export it: every
// new-edges record carries the seed's digest, and a seed flag says when
// the messages follow. Version 11 drops three fields neither end used:
// Boot's resume clock, each SPFuzz path's state list (dedup and
// generation read its models alone) and a mutation outcome's restarted
// flag (its Boots count says the same). Version 12 drops the options'
// five cost-model fields, constants in parallel that no end could set.
// Version 13 drops the options' Concurrency: it bounds the probe pool of
// Host.Plan, which only the coordinator runs. Version 14 drops the
// options' three ablation fields: the plan travels as the specs.
const protocolVersion = 14

// Message types. A retired message's code is never given to another,
// so no code means two things to peers of different versions.
const (
	msgHello byte = iota + 1
	msgWelcome
	msgAssign
	msgAssignOK
	msgBoot
	msgBootResult
	msgLease
	msgLeaseResult
	_ // 9: Finalize, retired in version 8
	_ // 10: InstanceResult, retired in version 8
	msgPing
	msgPong
	msgShutdown
	msgError
	msgRelease
	msgReleaseOK
)

var errFrameTooLarge = errors.New("dist: frame exceeds size limit")

// A frameWriter sends framed messages through a reusable scratch
// buffer, so the lease loop does not allocate a fresh header+payload
// copy per frame. The header and payload still go out in a single
// Write, so a concurrent deadline cannot split a frame (and each frame
// stays one Read on the far side of a net.Pipe, which the fault-
// injection tests count on). Not safe for concurrent use; each
// connection owns one and guards it with its write lock.
type frameWriter struct {
	buf []byte
}

func (f *frameWriter) write(w io.Writer, typ byte, id uint32, payload []byte) error {
	need := frameHeader + len(payload)
	if need-4 > maxFrame {
		return errFrameTooLarge
	}
	if cap(f.buf) < need {
		f.buf = make([]byte, need)
	}
	buf := f.buf[:need]
	binary.BigEndian.PutUint32(buf, uint32(need-4))
	buf[4] = typ
	binary.BigEndian.PutUint32(buf[5:], id)
	copy(buf[frameHeader:], payload)
	_, err := w.Write(buf)
	return err
}

// writeFrame sends one framed message through a throwaway frameWriter
// (cold paths only; hot paths reuse a connection-owned frameWriter).
func writeFrame(w io.Writer, typ byte, id uint32, payload []byte) error {
	return (&frameWriter{}).write(w, typ, id, payload)
}

// readFrame reads one framed message: its type, request id and payload.
func readFrame(r io.Reader) (byte, uint32, []byte, error) {
	var hdr [frameHeader]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return 0, 0, nil, err
	}
	n := binary.BigEndian.Uint32(hdr[:4])
	if n < frameHeader-4 {
		return 0, 0, nil, fmt.Errorf("dist: %d-byte frame is shorter than its header", n)
	}
	if n > maxFrame {
		return 0, 0, nil, errFrameTooLarge
	}
	payload := make([]byte, n-(frameHeader-4))
	if _, err := io.ReadFull(r, payload); err != nil {
		return 0, 0, nil, err
	}
	return hdr[4], binary.BigEndian.Uint32(hdr[5:]), payload, nil
}

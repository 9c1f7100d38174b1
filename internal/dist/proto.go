package dist

import (
	"errors"
	"fmt"
	"math"
	"sort"
	"time"

	"cmfuzz/internal/bugs"
	"cmfuzz/internal/core/configmodel"
	"cmfuzz/internal/core/schedule"
	"cmfuzz/internal/fuzz"
	"cmfuzz/internal/parallel"
	"cmfuzz/internal/subject"
	"cmfuzz/internal/telemetry"
	"cmfuzz/internal/telemetry/trace"
	"cmfuzz/internal/wire"
)

// ErrProto reports a structurally invalid protocol payload.
var ErrProto = errors.New("dist: malformed message")

// The codecs below use internal/wire. Every map is serialized in sorted
// key order so encodings are canonical; floats travel as IEEE-754 bits
// so the worker and coordinator compute with identical values.

func putF64(w *wire.Writer, f float64) { w.U64(math.Float64bits(f)) }
func getF64(r *wire.Reader) float64    { return math.Float64frombits(r.U64()) }
func getBool(r *wire.Reader) bool      { return r.U8() != 0 }
func putI64(w *wire.Writer, v int64)   { w.U64(uint64(v)) }
func getI64(r *wire.Reader) int64      { return int64(r.U64()) }

func putBool(w *wire.Writer, b bool) {
	if b {
		w.U8(1)
		return
	}
	w.U8(0)
}

func putStrings(w *wire.Writer, ss []string) {
	w.U16(uint16(len(ss)))
	for _, s := range ss {
		w.String16(s)
	}
}

func getStrings(r *wire.Reader) []string {
	n := int(r.U16())
	if n == 0 || r.Err() != nil {
		return nil
	}
	out := make([]string, 0, min(n, 1024))
	for i := 0; i < n && r.Err() == nil; i++ {
		out = append(out, r.String16())
	}
	return out
}

func putAssignment(w *wire.Writer, a configmodel.Assignment) {
	keys := make([]string, 0, len(a))
	for k := range a {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	w.U16(uint16(len(keys)))
	for _, k := range keys {
		w.String16(k)
		w.String16(a[k])
	}
}

func getAssignment(r *wire.Reader) configmodel.Assignment {
	n := int(r.U16())
	if r.Err() != nil {
		return nil
	}
	a := make(configmodel.Assignment, n)
	for i := 0; i < n && r.Err() == nil; i++ {
		k := r.String16()
		a[k] = r.String16()
	}
	return a
}

// --- Hello / Welcome ---

type hello struct {
	Name    string
	Version byte
}

func encodeHello(h hello) []byte {
	w := &wire.Writer{}
	w.U8(h.Version)
	w.String16(h.Name)
	return w.Bytes()
}

func decodeHello(p []byte) (hello, error) {
	r := wire.NewReader(p)
	h := hello{Version: r.U8(), Name: r.String16()}
	return h, r.Err()
}

// --- Assign ---

// Campaign ids namespace every instance-addressed message so one worker
// connection can host instances from many concurrent campaigns. They
// ride inside the existing payloads (never as extra frames), so the
// startup frame sequence — and the fault-injection tests that count it
// — is identical to a single-campaign run.
type assign struct {
	Campaign uint32
	Subject  string
	// Trace asks the worker to run its own span tracer over lease
	// execution and ship completed records back in lease replies.
	// Timing observation only — it never influences execution, so
	// traced and untraced campaigns stay byte-identical.
	Trace bool
	// LiveSpec, when non-empty, is a JSON-encoded live-target spec: the
	// worker builds a live subject from it instead of resolving Subject
	// by name. The whole spec (config template included) travels inline
	// so workers never need files from the submitter's machine.
	LiveSpec string
	Opts     parallel.Options
	Specs    []parallel.InstanceSpec
}

func encodeOptions(w *wire.Writer, o parallel.Options) {
	w.U8(byte(o.Mode))
	w.U32(uint32(o.Instances))
	putF64(w, o.VirtualHours)
	putI64(w, o.Seed)
	putF64(w, o.StepCost)
	putF64(w, o.ByteCost)
	putF64(w, o.SyncInterval)
	putF64(w, o.SaturationWindow)
	w.U32(uint32(o.SaturationMinGain))
	w.U32(uint32(o.MaxValues))
	w.U8(byte(o.Allocator))
	putBool(w, o.DisableConfigMutation)
	putF64(w, o.SampleEvery)
	putBool(w, o.RawRelationWeighting)
	putBool(w, o.PeachSharedSchedules)
	w.U32(uint32(o.Concurrency))
	putF64(w, o.LinkLoss)
	putF64(w, o.LinkLatencyBase)
	putF64(w, o.LinkLatencyJitter)
}

func decodeOptions(r *wire.Reader) parallel.Options {
	return parallel.Options{
		Mode:                  parallel.Mode(r.U8()),
		Instances:             int(r.U32()),
		VirtualHours:          getF64(r),
		Seed:                  getI64(r),
		StepCost:              getF64(r),
		ByteCost:              getF64(r),
		SyncInterval:          getF64(r),
		SaturationWindow:      getF64(r),
		SaturationMinGain:     int(r.U32()),
		MaxValues:             int(r.U32()),
		Allocator:             parallel.Allocator(r.U8()),
		DisableConfigMutation: getBool(r),
		SampleEvery:           getF64(r),
		RawRelationWeighting:  getBool(r),
		PeachSharedSchedules:  getBool(r),
		Concurrency:           int(r.U32()),
		LinkLoss:              getF64(r),
		LinkLatencyBase:       getF64(r),
		LinkLatencyJitter:     getF64(r),
	}
}

func encodeSpec(w *wire.Writer, s parallel.InstanceSpec) {
	w.U32(uint32(s.Index))
	putAssignment(w, s.Config)
	putStrings(w, s.Group.Members)
	w.U16(uint16(len(s.Paths)))
	for _, p := range s.Paths {
		putStrings(w, p.States)
		putStrings(w, p.Models)
	}
	putI64(w, s.EngineSeed)
	putI64(w, s.RngSeed)
}

func decodeSpec(r *wire.Reader) parallel.InstanceSpec {
	s := parallel.InstanceSpec{
		Index:  int(r.U32()),
		Config: getAssignment(r),
		Group:  schedule.Group{Members: getStrings(r)},
	}
	n := int(r.U16())
	for i := 0; i < n && r.Err() == nil; i++ {
		s.Paths = append(s.Paths, fuzz.Path{States: getStrings(r), Models: getStrings(r)})
	}
	s.EngineSeed = getI64(r)
	s.RngSeed = getI64(r)
	return s
}

// liveSpecOf returns the inline live-target spec for subjects that
// carry one ("" otherwise). The assertion keeps dist decoupled from
// the live package on the coordinator side: any subject exposing
// LiveSpecJSON rides the wire.
func liveSpecOf(sub subject.Subject) string {
	if ls, ok := sub.(interface{ LiveSpecJSON() string }); ok {
		return ls.LiveSpecJSON()
	}
	return ""
}

func encodeAssign(a assign) []byte {
	w := &wire.Writer{}
	w.U32(a.Campaign)
	w.String16(a.Subject)
	putBool(w, a.Trace)
	w.String32(a.LiveSpec)
	encodeOptions(w, a.Opts)
	w.U16(uint16(len(a.Specs)))
	for _, s := range a.Specs {
		encodeSpec(w, s)
	}
	return w.Bytes()
}

func decodeAssign(p []byte) (assign, error) {
	r := wire.NewReader(p)
	a := assign{Campaign: r.U32(), Subject: r.String16(), Trace: getBool(r), LiveSpec: r.String32(), Opts: decodeOptions(r)}
	n := int(r.U16())
	for i := 0; i < n && r.Err() == nil; i++ {
		a.Specs = append(a.Specs, decodeSpec(r))
	}
	if r.Err() != nil {
		return assign{}, r.Err()
	}
	if !r.Empty() {
		return assign{}, ErrProto
	}
	return a, nil
}

// --- Boot ---

type bootReq struct {
	Campaign    uint32
	Index       int
	ResumeClock float64 // nonzero when re-booting a lost instance
}

func encodeBootReq(b bootReq) []byte {
	w := &wire.Writer{}
	w.U32(b.Campaign)
	w.U32(uint32(b.Index))
	putF64(w, b.ResumeClock)
	return w.Bytes()
}

func decodeBootReq(p []byte) (bootReq, error) {
	r := wire.NewReader(p)
	b := bootReq{Campaign: r.U32(), Index: int(r.U32()), ResumeClock: getF64(r)}
	return b, r.Err()
}

// crashRec is one buffered CrashSink record (parallel.RecordingSink's
// element type), replayed into the coordinator's ledger in order.
type crashRec = parallel.CrashRec

func putCrash(w *wire.Writer, c *bugs.Crash) {
	w.String16(c.Protocol)
	w.U8(byte(c.Kind))
	w.String16(c.Function)
	w.String32(c.Detail)
}

func getCrash(r *wire.Reader) bugs.Crash {
	return bugs.Crash{
		Protocol: r.String16(),
		Kind:     bugs.Kind(r.U8()),
		Function: r.String16(),
		Detail:   r.String32(),
	}
}

func putCrashRec(w *wire.Writer, c crashRec) {
	putCrash(w, &c.Crash)
	w.U32(uint32(c.Instance))
	putF64(w, c.T)
	w.String32(c.Config)
}

func getCrashRec(r *wire.Reader) crashRec {
	return crashRec{
		Crash:    getCrash(r),
		Instance: int(r.U32()),
		T:        getF64(r),
		Config:   r.String32(),
	}
}

func putCrashRecs(w *wire.Writer, cs []crashRec) {
	w.U16(uint16(len(cs)))
	for _, c := range cs {
		putCrashRec(w, c)
	}
}

func getCrashRecs(r *wire.Reader) []crashRec {
	n := int(r.U16())
	var out []crashRec
	for i := 0; i < n && r.Err() == nil; i++ {
		out = append(out, getCrashRec(r))
	}
	return out
}

type bootResult struct {
	Err        string // empty on success
	Config     string
	StartEdges int
	Delta      []byte // full engine map (EncodeDelta against nil)
	Crashes    []crashRec
}

func encodeBootResult(b bootResult) []byte {
	w := &wire.Writer{}
	w.String32(b.Err)
	w.String32(b.Config)
	w.U32(uint32(b.StartEdges))
	w.Bytes32(b.Delta)
	putCrashRecs(w, b.Crashes)
	return w.Bytes()
}

func decodeBootResult(p []byte) (bootResult, error) {
	r := wire.NewReader(p)
	b := bootResult{
		Err:        r.String32(),
		Config:     r.String32(),
		StartEdges: int(r.U32()),
		Delta:      r.Bytes32(),
		Crashes:    getCrashRecs(r),
	}
	return b, r.Err()
}

// --- Lease ---

// indexReq addresses a single instance (Finalize).
type indexReq struct {
	Campaign uint32
	Index    int
}

func encodeIndexReq(s indexReq) []byte {
	w := &wire.Writer{}
	w.U32(s.Campaign)
	w.U32(uint32(s.Index))
	return w.Bytes()
}

func decodeIndexReq(p []byte) (indexReq, error) {
	r := wire.NewReader(p)
	s := indexReq{Campaign: r.U32(), Index: int(r.U32())}
	return s, r.Err()
}

// --- Release ---

// encodeRelease addresses a whole campaign: the worker closes and
// forgets that campaign's instances but keeps serving every other
// campaign on the connection.
func encodeRelease(campaign uint32) []byte {
	w := &wire.Writer{}
	w.U32(campaign)
	return w.Bytes()
}

func decodeRelease(p []byte) (uint32, error) {
	r := wire.NewReader(p)
	id := r.U32()
	if r.Err() != nil {
		return 0, r.Err()
	}
	if !r.Empty() {
		return 0, ErrProto
	}
	return id, nil
}

func putMutEvent(w *wire.Writer, e parallel.MutEvent) {
	w.String16(string(e.Type))
	w.String16(e.Entity)
	w.String16(e.Value)
	w.String32(e.Config)
	w.String32(e.Detail)
}

func getMutEvent(r *wire.Reader) parallel.MutEvent {
	return parallel.MutEvent{
		Type:   telemetry.Type(r.String16()),
		Entity: r.String16(),
		Value:  r.String16(),
		Config: r.String32(),
		Detail: r.String32(),
	}
}

// A lease hands one instance a batch of work: seeds to import first
// (the previous sync's collection, empty on the first lease), then run
// autonomously until the virtual clock crosses Boundary (the instance's
// next sync point) or Horizon, whichever comes first.
type lease struct {
	Campaign uint32
	Index    int
	Boundary float64
	Horizon  float64
	Seeds    []fuzz.Seed
}

func encodeLease(l lease) []byte {
	w := &wire.Writer{}
	w.U32(l.Campaign)
	w.U32(uint32(l.Index))
	putF64(w, l.Boundary)
	putF64(w, l.Horizon)
	putSeeds(w, l.Seeds)
	return w.Bytes()
}

func decodeLease(p []byte) (lease, error) {
	r := wire.NewReader(p)
	l := lease{
		Campaign: r.U32(),
		Index:    int(r.U32()),
		Boundary: getF64(r),
		Horizon:  getF64(r),
		Seeds:    getSeeds(r),
	}
	if r.Err() != nil {
		return lease{}, r.Err()
	}
	if !r.Empty() {
		return lease{}, ErrProto
	}
	return l, nil
}

// Per-step record encoding inside a lease reply. A flags byte leads
// each record so the common case (no crash, no new edges, no
// saturation, no link latency) costs two bytes: flags + a varint byte
// count. Optional sections follow in flag-bit order, except that the
// latency charge, the youngest section, sits right after the byte count
// it is added to.
const (
	leaseFlagCrash   = 1 << 0
	leaseFlagEdges   = 1 << 1
	leaseFlagSat     = 1 << 2
	leaseFlagLatency = 1 << 3

	leaseFlagsKnown = leaseFlagCrash | leaseFlagEdges | leaseFlagSat | leaseFlagLatency

	// leaseEnd terminates the record stream (it cannot collide with a
	// flags byte, whose unknown bits are rejected).
	leaseEnd byte = 0xFF
)

// appendLeaseStep encodes one step record onto w. The worker calls it
// from StepN's afterRecord hook, so the reply is built incrementally in
// a reused encoder instead of being assembled from per-step slices; the
// checkpoint calls it for drained records not yet replayed. A record
// that charged no link latency encodes as it did before records could
// carry one, so older checkpoints and latency-free replies are
// unchanged.
func appendLeaseStep(w *wire.Writer, rec *parallel.LeaseStep) {
	var flags byte
	if rec.Crash != nil {
		flags |= leaseFlagCrash
	}
	if rec.NewEdges > 0 {
		flags |= leaseFlagEdges
	}
	if rec.SatFired {
		flags |= leaseFlagSat
	}
	if rec.Latency != 0 {
		flags |= leaseFlagLatency
	}
	w.U8(flags)
	w.Varint(uint32(rec.Bytes))
	if rec.Latency != 0 {
		putF64(w, rec.Latency)
	}
	if rec.Crash != nil {
		putCrash(w, rec.Crash)
	}
	if rec.NewEdges > 0 {
		w.Varint(uint32(rec.NewEdges))
		w.Bytes32(rec.Delta)
		// Seed.Gain is NewEdges by construction, so only the messages
		// travel. Sequences are at most a handful of messages (the
		// engine caps path length), so a one-byte count suffices.
		w.U8(byte(len(rec.Seed.Msgs)))
		for _, m := range rec.Seed.Msgs {
			w.Bytes32(m)
		}
	}
	if rec.SatFired {
		m := rec.Mutation
		w.U16(uint16(len(m.Events)))
		for _, e := range m.Events {
			putMutEvent(w, e)
		}
		w.U8(byte(m.Mutations))
		w.U8(byte(m.Boots))
		w.U8(byte(m.RestartFails))
		w.U8(byte(m.Fallbacks))
		putBool(w, m.Restarted)
		putCrashRecs(w, rec.MutationCrashes)
		w.String32(rec.Config)
		w.Varint(uint32(rec.Coverage))
	}
}

// getLeaseRecord parses one step record whose flags byte has already
// been read, rejecting flag bits it does not know.
func getLeaseRecord(r *wire.Reader, flags byte) (parallel.LeaseStep, error) {
	var rec parallel.LeaseStep
	if flags&^byte(leaseFlagsKnown) != 0 {
		return rec, ErrProto
	}
	rec.Bytes = int(r.Varint())
	if flags&leaseFlagLatency != 0 {
		rec.Latency = getF64(r)
		// The flag means a positive, finite charge: anything else would
		// re-encode differently or poison the replayed clock.
		if r.Err() == nil && !(rec.Latency > 0 && rec.Latency <= math.MaxFloat64) {
			return rec, ErrProto
		}
	}
	if flags&leaseFlagCrash != 0 {
		c := getCrash(r)
		rec.Crash = &c
	}
	if flags&leaseFlagEdges != 0 {
		rec.NewEdges = int(r.Varint())
		if r.Err() == nil && rec.NewEdges == 0 {
			return rec, ErrProto
		}
		rec.Delta = r.Bytes32()
		msgs := int(r.U8())
		for j := 0; j < msgs && r.Err() == nil; j++ {
			rec.Seed.Msgs = append(rec.Seed.Msgs, r.Bytes32())
		}
		rec.Seed.Gain = rec.NewEdges
	}
	if flags&leaseFlagSat != 0 {
		rec.SatFired = true
		m := &parallel.MutationOutcome{}
		n := int(r.U16())
		for i := 0; i < n && r.Err() == nil; i++ {
			m.Events = append(m.Events, getMutEvent(r))
		}
		m.Mutations = int(r.U8())
		m.Boots = int(r.U8())
		m.RestartFails = int(r.U8())
		m.Fallbacks = int(r.U8())
		m.Restarted = getBool(r)
		rec.Mutation = m
		rec.MutationCrashes = getCrashRecs(r)
		rec.Config = r.String32()
		rec.Coverage = int(r.Varint())
	}
	return rec, r.Err()
}

// putSpanRecords appends the span-record section that closes every
// lease reply: a count, each completed span (id/parent/track/name/
// start/end/attrs — attribute values flattened to strings with %v),
// then the worker's tracer clock at encode time so the coordinator can
// align the worker timeline with its own. With tracing off the section
// is a count of zero and a zero clock (~12 bytes).
func putSpanRecords(w *wire.Writer, recs []trace.Record, now time.Duration) {
	w.U32(uint32(len(recs)))
	for _, rec := range recs {
		putI64(w, int64(rec.ID))
		putI64(w, int64(rec.Parent))
		w.U16(uint16(rec.Track))
		w.String16(rec.Name)
		putI64(w, int64(rec.Start))
		putI64(w, int64(rec.End))
		w.U8(byte(len(rec.Attrs)))
		for _, a := range rec.Attrs {
			w.String16(a.Key)
			w.String32(fmt.Sprint(a.Value))
		}
	}
	putI64(w, int64(now))
}

// getSpanRecords parses the span-record section and the worker clock.
func getSpanRecords(r *wire.Reader) ([]trace.Record, time.Duration) {
	n := int(r.U32())
	var recs []trace.Record
	for i := 0; i < n && r.Err() == nil; i++ {
		rec := trace.Record{
			ID:     int(getI64(r)),
			Parent: int(getI64(r)),
			Track:  int(r.U16()),
			Name:   r.String16(),
			Start:  time.Duration(getI64(r)),
			End:    time.Duration(getI64(r)),
		}
		attrs := int(r.U8())
		for j := 0; j < attrs && r.Err() == nil; j++ {
			rec.Attrs = append(rec.Attrs, trace.A(r.String16(), r.String32()))
		}
		recs = append(recs, rec)
	}
	return recs, time.Duration(getI64(r))
}

// decodeLeaseResult parses a consolidated lease reply: step records up
// to the leaseEnd terminator, whether the instance stopped at its sync
// boundary (false means it ran out the campaign horizon), then the
// span-record section (worker trace spans plus the worker's tracer
// clock; empty with a zero clock when tracing is off).
func decodeLeaseResult(p []byte) ([]parallel.LeaseStep, bool, []trace.Record, time.Duration, error) {
	r := wire.NewReader(p)
	var recs []parallel.LeaseStep
	for {
		flags := r.U8()
		if r.Err() != nil {
			return nil, false, nil, 0, r.Err()
		}
		if flags == leaseEnd {
			break
		}
		rec, err := getLeaseRecord(r, flags)
		if err != nil {
			return nil, false, nil, 0, err
		}
		recs = append(recs, rec)
	}
	syncDue := getBool(r)
	spans, workerNow := getSpanRecords(r)
	if r.Err() != nil {
		return nil, false, nil, 0, r.Err()
	}
	if !r.Empty() {
		return nil, false, nil, 0, ErrProto
	}
	return recs, syncDue, spans, workerNow, nil
}

func putSeeds(w *wire.Writer, seeds []fuzz.Seed) {
	w.U16(uint16(len(seeds)))
	for _, s := range seeds {
		w.U16(uint16(len(s.Msgs)))
		for _, m := range s.Msgs {
			w.Bytes32(m)
		}
		w.U32(uint32(s.Gain))
	}
}

func getSeeds(r *wire.Reader) []fuzz.Seed {
	n := int(r.U16())
	var out []fuzz.Seed
	for i := 0; i < n && r.Err() == nil; i++ {
		var s fuzz.Seed
		msgs := int(r.U16())
		for j := 0; j < msgs && r.Err() == nil; j++ {
			s.Msgs = append(s.Msgs, r.Bytes32())
		}
		s.Gain = int(r.U32())
		out = append(out, s)
	}
	return out
}

// --- Finalize ---

func encodeInstanceResult(ir parallel.InstanceResult) []byte {
	w := &wire.Writer{}
	w.U32(uint32(ir.Index))
	w.String32(ir.Config)
	putStrings(w, ir.Group)
	w.U32(uint32(ir.FinalBranches))
	putI64(w, int64(ir.Execs))
	w.U32(uint32(ir.Crashes))
	w.U32(uint32(ir.ConfigMutations))
	w.U32(uint32(ir.RestartFailures))
	return w.Bytes()
}

func decodeInstanceResult(p []byte) (parallel.InstanceResult, error) {
	r := wire.NewReader(p)
	ir := parallel.InstanceResult{
		Index:           int(r.U32()),
		Config:          r.String32(),
		Group:           getStrings(r),
		FinalBranches:   int(r.U32()),
		Execs:           int(getI64(r)),
		Crashes:         int(r.U32()),
		ConfigMutations: int(r.U32()),
		RestartFailures: int(r.U32()),
	}
	return ir, r.Err()
}

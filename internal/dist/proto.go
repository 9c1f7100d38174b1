package dist

import (
	"errors"
	"fmt"
	"math"
	"sort"
	"time"

	"cmfuzz/internal/bugs"
	"cmfuzz/internal/fuzz"
	"cmfuzz/internal/parallel"
	"cmfuzz/internal/subject"
	"cmfuzz/internal/telemetry/trace"
	"cmfuzz/internal/wire"
)

// ErrProto reports a structurally invalid protocol payload.
var ErrProto = errors.New("dist: malformed message")

// Every message is declared once, as a function that visits its fields
// in wire order. A codec runs such a visitor in one direction: holding a
// Writer it appends each field, holding a Reader it reads each field
// back into the same place. Every map is serialized in sorted key order
// so encodings are canonical; floats travel as IEEE-754 bits so the
// worker and coordinator compute with identical values.
type codec struct {
	w   *wire.Writer
	r   *wire.Reader
	err error // the first error encoding hit (decoding fails r instead)
}

// marshal encodes m with the visitor fields into a fresh buffer.
func marshal[T any](m *T, fields func(*codec, *T)) []byte {
	c := codec{w: &wire.Writer{}}
	fields(&c, m)
	return c.w.Bytes()
}

// unmarshal is the one decode rule every message obeys: a payload that
// ends early is wire.ErrTruncated, a field that breaks its rule or bytes
// left over after the last field are ErrProto, and any error comes with
// the zero value.
func unmarshal[T any](p []byte, fields func(*codec, *T)) (T, error) {
	var m T
	err := unmarshalInto(p, &m, fields)
	return m, err
}

// unmarshalInto is unmarshal into m, whose slices a stream visitor
// appends to: a caller recycles a buffer by handing it in emptied. On an
// error m is reset to the zero value.
func unmarshalInto[T any](p []byte, m *T, fields func(*codec, *T)) error {
	c := codec{r: wire.NewReader(p)}
	fields(&c, m)
	if !c.r.Empty() {
		c.r.Fail(ErrProto)
	}
	if err := c.r.Err(); err != nil {
		*m = *new(T)
		return err
	}
	return nil
}

func (c *codec) decoding() bool { return c.r != nil }

// ok reports whether a decoding visitor may keep reading.
func (c *codec) ok() bool { return c.r == nil || c.r.Err() == nil }

// fail records err, if it is one, as the codec's first error.
func (c *codec) fail(err error) {
	if c.r != nil {
		c.r.Fail(err)
	} else if c.err == nil {
		c.err = err
	}
}

// The primitives: each writes *v or reads into it.

func u8[T ~uint8 | ~int](c *codec, v *T) {
	if c.r != nil {
		*v = T(c.r.U8())
	} else {
		c.w.U8(byte(*v))
	}
}

func u16[T ~uint16 | ~int](c *codec, v *T) {
	if c.r != nil {
		*v = T(c.r.U16())
	} else {
		c.w.U16(uint16(*v))
	}
}

func u32[T ~uint32 | ~int](c *codec, v *T) {
	if c.r != nil {
		*v = T(c.r.U32())
	} else {
		c.w.U32(uint32(*v))
	}
}

func i64[T ~int64 | ~int](c *codec, v *T) {
	if c.r != nil {
		*v = T(c.r.U64())
	} else {
		c.w.U64(uint64(*v))
	}
}

func f64(c *codec, v *float64) {
	if c.r != nil {
		*v = math.Float64frombits(c.r.U64())
	} else {
		c.w.U64(math.Float64bits(*v))
	}
}

// flag is one byte, 1 for true; any non-zero byte reads as true.
func flag(c *codec, v *bool) {
	if c.r != nil {
		*v = c.r.U8() != 0
	} else if *v {
		c.w.U8(1)
	} else {
		c.w.U8(0)
	}
}

func varint(c *codec, v *int) {
	if c.r != nil {
		*v = int(c.r.Varint())
	} else {
		c.w.Varint(uint32(*v))
	}
}

func str16[T ~string](c *codec, s *T) {
	if c.r != nil {
		*s = T(c.r.String16())
	} else {
		c.w.String16(string(*s))
	}
}

func str32(c *codec, s *string) {
	if c.r != nil {
		*s = c.r.String32()
	} else {
		c.w.String32(*s)
	}
}

// bytes32 decodes to a slice that aliases the payload.
func bytes32(c *codec, b *[]byte) {
	if c.r != nil {
		*b = c.r.Bytes32()
	} else {
		c.w.Bytes32(*b)
	}
}

// text is a value of any type that travels as its %v rendering and
// decodes as that string.
func text(c *codec, v *any) {
	if c.r != nil {
		*v = c.r.String32()
	} else {
		c.w.String32(fmt.Sprint(*v))
	}
}

// list visits a slice as an N-wide count, then each element. Decoding
// appends the elements in place and stops at the first error. It makes
// room for at most 64 elements up front, so a count the input does not
// back with bytes costs at most that.
func list[N uint8 | uint16 | uint32, T any](c *codec, s *[]T, elem func(*codec, *T)) {
	n := N(len(*s))
	switch p := any(&n).(type) {
	case *uint8:
		u8(c, p)
	case *uint16:
		u16(c, p)
	case *uint32:
		u32(c, p)
	}
	if c.r == nil {
		for i := range *s {
			elem(c, &(*s)[i])
		}
		return
	}
	if n > 0 && c.r.Err() == nil {
		*s = make([]T, 0, min(int(n), 64)) // decoding fills a zero value
	}
	for i := N(0); i < n && c.r.Err() == nil; i++ {
		var zero T
		*s = append(*s, zero)
		elem(c, &(*s)[len(*s)-1])
	}
}

// stream visits a slice as its elements followed by the byte end, which
// no element starts with. The end byte is left to the visitor that
// follows: decoding stops in front of it.
func stream[T any](c *codec, s *[]T, end byte, elem func(*codec, *T)) {
	if c.r == nil {
		for i := range *s {
			elem(c, &(*s)[i])
		}
		return
	}
	for c.r.Err() == nil && c.r.Peek() != end {
		var zero T
		*s = append(*s, zero)
		elem(c, &(*s)[len(*s)-1])
	}
}

// opt visits a struct held by pointer, allocating it when decoding.
func opt[T any](c *codec, p **T, fields func(*codec, *T)) {
	if c.r != nil {
		*p = new(T)
	}
	fields(c, *p)
}

// dict visits a map as a u16 count and its key/value pairs in sorted key
// order.
func dict[M ~map[string]V, V any](c *codec, m *M, val func(*codec, *V)) {
	keys := make([]string, 0, len(*m))
	for k := range *m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	n := len(keys)
	u16(c, &n)
	if c.r != nil {
		*m = make(M, n)
	}
	for i := 0; i < n && c.ok(); i++ {
		var k string
		var v V
		if c.r == nil {
			k, v = keys[i], (*m)[keys[i]]
		}
		str16(c, &k)
		val(c, &v)
		if c.r != nil {
			(*m)[k] = v
		}
	}
}

func strs(c *codec, ss *[]string) { list[uint16](c, ss, str16[string]) }

// --- Hello / Welcome ---

type hello struct {
	Name    string
	Version byte
}

// The version leads, so a hello of any version can be told apart from a
// malformed one by its first byte.
func (c *codec) hello(h *hello) {
	u8(c, &h.Version)
	str16(c, &h.Name)
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

func (c *codec) assign(a *assign) {
	u32(c, &a.Campaign)
	str16(c, &a.Subject)
	flag(c, &a.Trace)
	str32(c, &a.LiveSpec)
	c.options(&a.Opts)
	list[uint16](c, &a.Specs, (*codec).spec)
}

// options visits the resolved options. The observability sinks and
// Concurrency do not travel: only the coordinator plans, and the probe
// pool is all Concurrency bounds. Decoding holds them to
// Options.Validate, as spec does.
func (c *codec) options(o *parallel.Options) {
	u8(c, &o.Mode)
	u32(c, &o.Instances)
	f64(c, &o.VirtualHours)
	i64(c, &o.Seed)
	f64(c, &o.SaturationWindow)
	u32(c, &o.SaturationMinGain)
	flag(c, &o.DisableConfigMutation)
	f64(c, &o.LinkLoss)
	f64(c, &o.LinkLatencyBase)
	f64(c, &o.LinkLatencyJitter)
	if c.decoding() && c.ok() && o.Validate() != nil {
		c.fail(ErrProto)
	}
}

func (c *codec) spec(s *parallel.InstanceSpec) {
	u32(c, &s.Index)
	dict(c, &s.Config, str16[string])
	strs(c, &s.Group.Members)
	list[uint16](c, &s.Paths, (*codec).path)
	i64(c, &s.EngineSeed)
	i64(c, &s.RngSeed)
}

func (c *codec) path(p *fuzz.Path) { strs(c, &p.Models) }

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

// --- Boot ---

type bootReq struct {
	Campaign uint32
	Index    int
}

func (c *codec) bootReq(b *bootReq) {
	u32(c, &b.Campaign)
	u32(c, &b.Index)
}

// crashRec is one crash a boot or restart hit (parallel.CrashRec),
// replayed into the coordinator's ledger in order.
type crashRec = parallel.CrashRec

func (c *codec) crash(cr *bugs.Crash) {
	str16(c, &cr.Protocol)
	u8(c, &cr.Kind)
	str16(c, &cr.Function)
	str32(c, &cr.Detail)
}

func (c *codec) crashRec(r *crashRec) {
	c.crash(&r.Crash)
	u32(c, &r.Instance)
	f64(c, &r.T)
	str32(c, &r.Config)
}

type bootResult struct {
	Err string // empty on success
	parallel.BootReport
}

func (c *codec) bootResult(b *bootResult) {
	str32(c, &b.Err)
	str32(c, &b.Config)
	u32(c, &b.StartEdges)
	bytes32(c, &b.Delta)
	list[uint16](c, &b.Crashes, (*codec).crashRec)
}

// --- Release ---

// A Release payload is a bare campaign id (u32[uint32]): the worker
// closes and forgets that campaign's instances but keeps serving every
// other campaign on the connection.

// --- Lease ---

// A lease hands one instance a batch of work: seeds to import first
// (the previous sync's collection, empty on the first lease), then run
// autonomously until the virtual clock crosses Boundary (the instance's
// next sync point) or Horizon, whichever comes first. Decoding rejects
// a bound no coordinator sends: negative, NaN, or infinite (never crossed).
type lease struct {
	Campaign uint32
	Index    int
	Boundary float64
	Horizon  float64
	Seeds    []fuzz.Seed
}

func (c *codec) lease(l *lease) {
	u32(c, &l.Campaign)
	u32(c, &l.Index)
	f64(c, &l.Boundary)
	f64(c, &l.Horizon)
	if c.decoding() && c.ok() && !(l.Boundary >= 0 && l.Boundary <= math.MaxFloat64 && l.Horizon >= 0 && l.Horizon <= math.MaxFloat64) {
		c.fail(ErrProto)
	}
	c.seeds(&l.Seeds)
}

func (c *codec) seeds(s *[]fuzz.Seed) { list[uint16](c, s, (*codec).seed) }

// seed visits a lease's seed. Only a worker decodes one, and it copies
// the messages: a view a corpus kept would keep the whole frame alive.
func (c *codec) seed(s *fuzz.Seed) {
	list[uint16](c, &s.Msgs, bytes32)
	u32(c, &s.Gain)
	if c.decoding() {
		*s = s.Clone()
	}
}

// Per-step record encoding inside a lease reply. A flags byte leads
// each record so the common case (no crash, no new edges, no
// saturation, no link latency) costs two bytes: flags + a varint byte
// count. Optional sections follow in flag-bit order, except that the
// latency charge, the youngest section, sits right after the byte count
// it is added to. The seed flag, set only beside the edges flag, says
// that the new-edges seed's messages follow its digest (LeaseStep.Ship).
const (
	leaseFlagCrash   = 1 << 0
	leaseFlagEdges   = 1 << 1
	leaseFlagSat     = 1 << 2
	leaseFlagLatency = 1 << 3
	leaseFlagSeed    = 1 << 4

	leaseFlagsKnown = leaseFlagCrash | leaseFlagEdges | leaseFlagSat | leaseFlagLatency | leaseFlagSeed

	// leaseEnd terminates the record stream (it cannot collide with a
	// flags byte, whose unknown bits are rejected).
	leaseEnd byte = 0xFF
)

// step visits one step record. A lane encodes a lease's records into its
// reused encoder straight from the instance's record buffer. A record
// that charged no link latency encodes as it did before records could
// carry one, so latency-free replies are unchanged. A new-edges record
// carries its seed's digest, and the messages only when the record ships
// them. Decoding rejects flag bits it does not know, an edges flag with
// no edges, a seed flag without one, shipped messages that do not match
// their digest, and a latency flag without a positive, finite charge:
// anything else would re-encode differently or poison the replayed
// clock or a corpus mirror.
func (c *codec) step(rec *parallel.LeaseStep) {
	var flags byte // what rec carries; a decoded record is still empty here
	if rec.Crash != nil {
		flags |= leaseFlagCrash
	}
	if rec.NewEdges > 0 {
		flags |= leaseFlagEdges
	}
	if rec.Mutation != nil {
		flags |= leaseFlagSat
	}
	if rec.Latency != 0 {
		flags |= leaseFlagLatency
	}
	if rec.NewEdges > 0 && rec.Ship {
		flags |= leaseFlagSeed
	}
	u8(c, &flags)
	if flags&^byte(leaseFlagsKnown) != 0 || flags&leaseFlagSeed != 0 && flags&leaseFlagEdges == 0 {
		c.fail(ErrProto)
		return
	}
	varint(c, &rec.Bytes)
	if flags&leaseFlagLatency != 0 {
		f64(c, &rec.Latency)
		if c.ok() && !(rec.Latency > 0 && rec.Latency <= math.MaxFloat64) {
			c.fail(ErrProto)
		}
	}
	if flags&leaseFlagCrash != 0 {
		opt(c, &rec.Crash, (*codec).crash)
	}
	if flags&leaseFlagEdges != 0 {
		varint(c, &rec.NewEdges)
		if c.ok() && rec.NewEdges == 0 {
			c.fail(ErrProto)
		}
		bytes32(c, &rec.Delta)
		// Seed.Gain is NewEdges by construction, so only the digest and
		// the messages travel. Sequences are at most a handful of
		// messages (the engine caps path length), so a one-byte count
		// suffices.
		u32(c, &rec.Digest.CRC)
		u32(c, &rec.Digest.Size)
		if flags&leaseFlagSeed != 0 {
			list[uint8](c, &rec.Seed.Msgs, bytes32)
			if c.decoding() && c.ok() && rec.Seed.Digest() != rec.Digest {
				c.fail(ErrProto)
			}
			if c.decoding() {
				// A mirror keeps the seed: copy its bytes out of the
				// frame, which a view would keep alive whole.
				rec.Seed = rec.Seed.Clone()
			}
		}
	}
	if c.decoding() {
		rec.Seed.Gain = rec.NewEdges
		rec.Ship = flags&leaseFlagSeed != 0
	}
	if flags&leaseFlagSat != 0 {
		opt(c, &rec.Mutation, (*codec).mutation)
	}
}

func (c *codec) mutation(m *parallel.MutationOutcome) {
	list[uint16](c, &m.Events, (*codec).mutEvent)
	u8(c, &m.Mutations)
	u8(c, &m.Boots)
	u8(c, &m.RestartFails)
	u8(c, &m.Fallbacks)
	list[uint16](c, &m.Crashes, (*codec).crashRec)
	str32(c, &m.Config)
	varint(c, &m.Coverage)
}

func (c *codec) mutEvent(e *parallel.MutEvent) {
	str16(c, &e.Type)
	str16(c, &e.Entity)
	str16(c, &e.Value)
	str32(c, &e.Config)
	str32(c, &e.Detail)
}

// A leaseResult is a consolidated lease reply: the step records up to
// the leaseEnd terminator, whether the instance stopped at its sync
// boundary (false means it ran out the campaign horizon), then the span
// section: the worker's completed lease spans and its tracer clock at
// encode time, so the coordinator can align the worker timeline with its
// own. With tracing off the section is a count of zero and a zero clock
// (~12 bytes).
type leaseResult struct {
	Steps     []parallel.LeaseStep
	SyncDue   bool
	Spans     []trace.Record
	WorkerNow time.Duration
}

func (c *codec) leaseResult(l *leaseResult) {
	stream(c, &l.Steps, leaseEnd, (*codec).step)
	c.leaseTail(l)
}

// leaseTail is everything after the step records. A lane writes it once
// the lease has run, behind the records it encoded step by step.
func (c *codec) leaseTail(l *leaseResult) {
	end := leaseEnd
	u8(c, &end)
	flag(c, &l.SyncDue)
	list[uint32](c, &l.Spans, (*codec).span)
	i64(c, &l.WorkerNow)
}

func (c *codec) span(s *trace.Record) {
	i64(c, &s.ID)
	i64(c, &s.Parent)
	u16(c, &s.Track)
	str16(c, &s.Name)
	i64(c, &s.Start)
	i64(c, &s.End)
	list[uint8](c, &s.Attrs, (*codec).attr)
}

func (c *codec) attr(a *trace.Attr) {
	str16(c, &a.Key)
	text(c, &a.Value)
}

package bugs

import (
	"strings"
	"testing"
)

func TestKindString(t *testing.T) {
	cases := map[Kind]string{
		HeapUseAfterFree:     "heap-use-after-free",
		SEGV:                 "SEGV",
		MemoryLeak:           "memory leaks",
		AllocationSizeTooBig: "allocation-size-too-big",
		StackBufferOverflow:  "stack-buffer-overflow",
		HeapBufferOverflow:   "heap-buffer-overflow",
	}
	for k, want := range cases {
		if k.String() != want {
			t.Errorf("%d.String() = %q, want %q", int(k), k.String(), want)
		}
	}
	if !strings.Contains(Kind(99).String(), "99") {
		t.Error("out-of-range kind should include numeric value")
	}
}

func TestCrashErrorAndID(t *testing.T) {
	c := &Crash{Protocol: "CoAP", Kind: SEGV, Function: "coap_handle_request_put_block", Detail: "nil body_data"}
	if !strings.Contains(c.Error(), "SEGV") || !strings.Contains(c.Error(), "CoAP") {
		t.Errorf("Error() = %q missing fields", c.Error())
	}
	if c.ID() != "CoAP/SEGV/coap_handle_request_put_block" {
		t.Errorf("ID() = %q", c.ID())
	}
}

func TestTriggerAndCapture(t *testing.T) {
	crash := Capture(func() {
		Trigger("DNS", HeapBufferOverflow, "get16bits", "read past end")
	})
	if crash == nil {
		t.Fatal("Capture returned nil for triggered crash")
	}
	if crash.Kind != HeapBufferOverflow || crash.Protocol != "DNS" {
		t.Fatalf("captured wrong crash: %+v", crash)
	}
	if Capture(func() {}) != nil {
		t.Fatal("Capture of clean function returned a crash")
	}
}

func TestCapturePropagatesForeignPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("foreign panic was swallowed")
		}
	}()
	Capture(func() { panic("harness bug") })
}

func TestLedgerDedup(t *testing.T) {
	l := NewLedger()
	c := &Crash{Protocol: "MQTT", Kind: SEGV, Function: "loop_accepted"}
	if !l.Record(c, 0, 10, "cfg-a") {
		t.Fatal("first Record not new")
	}
	if l.Record(c, 1, 20, "cfg-b") {
		t.Fatal("duplicate Record reported new")
	}
	if l.Len() != 1 {
		t.Fatalf("Len = %d, want 1", l.Len())
	}
	r := l.Unique()[0]
	if r.Count != 2 || r.Time != 10 || r.Instance != 0 {
		t.Fatalf("report = %+v, want first-discovery metadata with count 2", r)
	}
}

func TestLedgerUniqueOrdering(t *testing.T) {
	l := NewLedger()
	l.Record(&Crash{Protocol: "B", Kind: SEGV, Function: "f"}, 0, 30, "")
	l.Record(&Crash{Protocol: "A", Kind: SEGV, Function: "f"}, 0, 10, "")
	l.Record(&Crash{Protocol: "C", Kind: SEGV, Function: "f"}, 0, 10, "")
	u := l.Unique()
	if u[0].Crash.Protocol != "A" || u[1].Crash.Protocol != "C" || u[2].Crash.Protocol != "B" {
		t.Fatalf("ordering wrong: %v %v %v", u[0].Crash.Protocol, u[1].Crash.Protocol, u[2].Crash.Protocol)
	}
}

func TestLedgerMerge(t *testing.T) {
	a, b := NewLedger(), NewLedger()
	c1 := &Crash{Protocol: "MQTT", Kind: SEGV, Function: "f"}
	a.Record(c1, 0, 50, "late")
	b.Record(c1, 2, 5, "early")
	b.Record(&Crash{Protocol: "DNS", Kind: MemoryLeak, Function: "g"}, 1, 7, "")
	a.Merge(b)
	if a.Len() != 2 {
		t.Fatalf("merged len = %d, want 2", a.Len())
	}
	for _, r := range a.Unique() {
		if r.Crash.Protocol == "MQTT" {
			if r.Time != 5 || r.Instance != 2 || r.Config != "early" {
				t.Fatalf("merge did not keep earliest discovery: %+v", r)
			}
			if r.Count != 2 {
				t.Fatalf("merge count = %d, want 2", r.Count)
			}
		}
	}
}

func TestTable2Complete(t *testing.T) {
	if len(Table2) != 14 {
		t.Fatalf("Table2 has %d rows, want 14", len(Table2))
	}
	perProto := map[string]int{}
	for i, k := range Table2 {
		if k.No != i+1 {
			t.Errorf("row %d numbered %d", i, k.No)
		}
		perProto[k.Protocol]++
	}
	want := map[string]int{"MQTT": 5, "CoAP": 3, "AMQP": 1, "DNS": 5}
	for p, n := range want {
		if perProto[p] != n {
			t.Errorf("protocol %s has %d rows, want %d", p, perProto[p], n)
		}
	}
}

func TestLookupKnown(t *testing.T) {
	c := &Crash{Protocol: "CoAP", Kind: SEGV, Function: "coap_handle_request_put_block"}
	k, ok := LookupKnown(c)
	if !ok || k.No != 8 {
		t.Fatalf("LookupKnown bug#8 = %+v, %v", k, ok)
	}
	if _, ok := LookupKnown(&Crash{Protocol: "CoAP", Kind: SEGV, Function: "nope"}); ok {
		t.Fatal("LookupKnown matched unknown crash")
	}
}

// TestKnownByProtocol: Table II holds five DNS rows and no DDS row.
func TestKnownByProtocol(t *testing.T) {
	rows := map[string]int{}
	for _, k := range Table2 {
		rows[k.Protocol]++
	}
	if got := rows["DNS"]; got != 5 {
		t.Fatalf("DNS rows = %d, want 5", got)
	}
	if got := rows["DDS"]; got != 0 {
		t.Fatalf("DDS rows = %d, want 0", got)
	}
}

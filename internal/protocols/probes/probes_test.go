package probes

import (
	"strings"
	"testing"
	"testing/quick"
)

func TestBucket(t *testing.T) {
	cases := map[int]uint64{
		-5: 0, 0: 0, 1: 1, 2: 2, 3: 2, 4: 3, 1023: 10, 1024: 11, 1 << 30: 31,
	}
	for in, want := range cases {
		if got := Bucket(in); got != want {
			t.Errorf("Bucket(%d) = %d, want %d", in, got, want)
		}
	}
}

// Property: Bucket is monotone and bounded.
func TestQuickBucketMonotone(t *testing.T) {
	f := func(a, b uint16) bool {
		x, y := int(a), int(b)
		if x > y {
			x, y = y, x
		}
		bx, by := Bucket(x), Bucket(y)
		return bx <= by && by <= 17
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestHashConsistency(t *testing.T) {
	if Hash("abc") != Hash("abc") {
		t.Fatal("Hash not deterministic")
	}
	if Hash("abc") == Hash("abd") {
		t.Fatal("Hash collides on near inputs")
	}
	if Hash("abc") != HashBytes([]byte("abc")) {
		t.Fatal("Hash and HashBytes disagree")
	}
	// Long periodic inputs take the run rule in both.
	for _, unit := range []string{"A", "0123456789abcdef", "topic/"} {
		s := "head" + strings.Repeat(unit, 3*runInput/len(unit)) + "tail"
		if Hash(s) != HashBytes([]byte(s)) || Hash(s) != fnvRef([]byte(s)) {
			t.Fatalf("Hash, HashBytes and the byte loop disagree on %d bytes of %q", len(s), unit)
		}
		if Hash(s) == Hash(s[1:]) {
			t.Fatal("Hash collides on near periodic inputs")
		}
	}
}

func TestB(t *testing.T) {
	if B(true) != 1 || B(false) != 0 {
		t.Fatal("B wrong")
	}
}

func TestIntBoolStr(t *testing.T) {
	cfg := map[string]string{
		"n": "42", "bad": "x", "empty": "",
		"t1": "true", "t2": "yes", "t3": "on", "t4": "1",
		"f1": "false", "f2": "no", "f3": "off", "f4": "0",
		"s": "hello",
	}
	if Int(cfg, "n", 7) != 42 || Int(cfg, "bad", 7) != 7 || Int(cfg, "missing", 7) != 7 || Int(cfg, "empty", 7) != 7 {
		t.Fatal("Int wrong")
	}
	for _, k := range []string{"t1", "t2", "t3", "t4"} {
		if !Bool(cfg, k, false) {
			t.Errorf("Bool(%s) = false", k)
		}
	}
	for _, k := range []string{"f1", "f2", "f3", "f4"} {
		if Bool(cfg, k, true) {
			t.Errorf("Bool(%s) = true", k)
		}
	}
	if !Bool(cfg, "s", true) || Bool(cfg, "s", false) {
		t.Fatal("unparseable bool should return default")
	}
	if Str(cfg, "s", "d") != "hello" || Str(cfg, "missing", "d") != "d" || Str(cfg, "empty", "d") != "d" {
		t.Fatal("Str wrong")
	}
}

package cmfuzz_test

import (
	"fmt"

	"cmfuzz"
)

// ExampleIdentify shows configuration model identification and
// scheduling without fuzzing: the CoAP subject's dependency pairs are
// discovered from startup coverage and divided into cohesive groups.
func ExampleIdentify() {
	sub, _ := cmfuzz.Subject("CoAP")
	plan, err := cmfuzz.Identify(sub, 4)
	if err != nil {
		fmt.Println(err)
		return
	}
	for _, e := range plan.Relation.Graph.SortedEdges() {
		fmt.Printf("%s <-> %s\n", e.A, e.B)
	}
	// Output:
	// dtls <-> psk-key
	// observe <-> q-block
	// multicast <-> proxy-uri
}

// ExampleFuzz runs a short deterministic campaign through the public API.
func ExampleFuzz() {
	sub, _ := cmfuzz.Subject("DNS")
	res, _ := cmfuzz.Fuzz(sub, cmfuzz.Options{
		Mode:         cmfuzz.ModeCMFuzz,
		VirtualHours: 0.1,
		Seed:         1,
	})
	fmt.Println(res.FinalBranches > 0, res.TotalExecs > 0)
	// Output: true true
}

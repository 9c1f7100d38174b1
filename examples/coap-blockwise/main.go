// coap-blockwise walks through the paper's Figure 5 case study: bug #8 in
// the libcoap-like CoAP server, a NULL body_data dereference in
// coap_handle_request_put_block that only exists when the non-default
// Q-Block1 configuration enables blockwise transfers.
//
// The example shows all three stages of the story:
//  1. under the default configuration the triggering packet is harmless
//     (the server answers 4.02 Bad Option);
//  2. CMFuzz's relation quantification discovers that q-block interacts
//     with block-size and observe, so some scheduled instance enables it;
//  3. under that instance's configuration, the fuzzer finds the crash.
package main

import (
	"fmt"
	"log"

	"cmfuzz"
)

func main() {
	sub, err := cmfuzz.Subject("CoAP")
	if err != nil {
		log.Fatal(err)
	}

	// Stage 1+2: identification and scheduling. Find which instance got
	// the q-block feature.
	plan, err := cmfuzz.Identify(sub, 4)
	if err != nil {
		log.Fatal(err)
	}
	qblockInstance := -1
	for i, a := range plan.Assignments {
		if a["q-block"] == "true" {
			qblockInstance = i
		}
	}
	fmt.Println("relation edges discovered by startup-coverage probing:")
	for _, e := range plan.Relation.Graph.SortedEdges() {
		fmt.Printf("  %.2f  %s <-> %s\n", e.Weight, e.A, e.B)
	}
	if qblockInstance < 0 {
		fmt.Println("\nno scheduled instance enables q-block at startup; it is")
		fmt.Println("reachable through adaptive configuration-value mutation instead")
	} else {
		fmt.Printf("\ninstance %d is scheduled with q-block enabled:\n  %s\n",
			qblockInstance, plan.Assignments[qblockInstance].String())
	}

	// Stage 3: fuzz. The campaign's CMFuzz instances include the
	// Q-Block1 configuration, so the Figure 5 crash is reachable.
	res, err := cmfuzz.Fuzz(sub, cmfuzz.Options{
		Mode:         cmfuzz.ModeCMFuzz,
		VirtualHours: 6,
		Seed:         1,
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nCMFuzz (6 virtual hours): %d branches, %d unique bugs\n",
		res.FinalBranches, res.Bugs.Len())
	for _, r := range res.Bugs.Unique() {
		marker := " "
		if r.Crash.Function == "coap_handle_request_put_block" {
			marker = "*" // the Figure 5 case study
		}
		fmt.Printf(" %s [%4.1fh] %s\n     config: %s\n", marker, r.Time/3600, r.Crash.Error(), r.Config)
	}

	// Control: the same budget under the default configuration (Peach
	// parallel mode) cannot reach the bug.
	peach, err := cmfuzz.Fuzz(sub, cmfuzz.Options{
		Mode:         cmfuzz.ModePeach,
		VirtualHours: 6,
		Seed:         1,
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nPeach under default configuration: %d branches, %d bugs — ", peach.FinalBranches, peach.Bugs.Len())
	fmt.Println("\"it cannot be triggered under the default configuration\" (paper §IV-C)")
}

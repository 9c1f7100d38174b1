// Quickstart: identify a protocol's configuration model, schedule it
// across parallel instances, and run a short CMFuzz campaign — the whole
// pipeline of the paper's Figure 1 in ~30 lines.
package main

import (
	"fmt"
	"log"
	"strings"

	"cmfuzz"
)

func main() {
	sub, err := cmfuzz.Subject("CoAP")
	if err != nil {
		log.Fatal(err)
	}

	// 1-2. Configuration model identification + scheduling.
	plan, err := cmfuzz.Identify(sub, 4)
	if err != nil {
		log.Fatal(err)
	}
	// Extraction consolidates items by name, so each becomes one entity.
	fmt.Printf("extracted %d configuration items -> %d entities, %d relation edges\n",
		plan.Model.Len(), plan.Model.Len(), plan.Relation.Graph.EdgeCount())
	for i, g := range plan.Groups {
		fmt.Printf("instance %d group: %s\n", i, strings.Join(g.Members, ", "))
	}

	// 3. Parallel fuzzing under the scheduled configurations (virtual
	// clock: "2 hours" completes in about a second).
	res, err := cmfuzz.Fuzz(sub, cmfuzz.Options{
		Mode:         cmfuzz.ModeCMFuzz,
		VirtualHours: 2,
		Seed:         1,
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nCMFuzz on %s: %d branches, %d execs, %d unique bugs\n",
		res.Subject.Implementation, res.FinalBranches, res.TotalExecs, res.Bugs.Len())
	for _, r := range res.Bugs.Unique() {
		fmt.Printf("  bug: %s\n", r.Crash.Error())
	}
}

// Command cmbench regenerates every table and figure of the paper's
// evaluation section:
//
//	cmbench -table1              Table I  (branches, improvement, speedup)
//	cmbench -fig4                Figure 4 (coverage-over-time curves)
//	cmbench -table2              Table II (previously-unknown bugs)
//	cmbench -ablation            design-choice ablations
//	cmbench -all                 everything
//
// The paper's full setting is -hours 24 -reps 5; the defaults are scaled
// down so a laptop run finishes in a couple of minutes. Campaigns run on
// the virtual clock, so hours are simulated, not wall time.
package main

import (
	"cmp"
	"context"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"time"

	"cmfuzz/internal/campaign"
	"cmfuzz/internal/monitor"
	"cmfuzz/internal/parallel"
	"cmfuzz/internal/protocols"
	"cmfuzz/internal/subject"
)

func main() {
	table1 := flag.Bool("table1", false, "regenerate Table I")
	fig4 := flag.Bool("fig4", false, "regenerate Figure 4")
	table2 := flag.Bool("table2", false, "regenerate Table II")
	ablation := flag.Bool("ablation", false, "run the design-choice ablations")
	all := flag.Bool("all", false, "regenerate everything")
	jsonOut := flag.Bool("json", false, "emit machine-readable JSON instead of tables")
	svgDir := flag.String("svg", "", "also write Figure 4 panels as SVG files into this directory")
	// The template campaign (-hours, -n, ...; paper: 24 h, 4 instances),
	// -reps (paper: 5) and -j; an empty -subject runs all six.
	var cfg campaign.Config
	cfg.Bind(flag.CommandLine, 5, "")
	sc := monitor.SessionConfig{RootSpan: "cmbench"}
	sc.Bind(flag.CommandLine)
	flag.Parse()

	matrix := *table1 || *fig4 || *table2 || *all
	if !matrix && !*ablation {
		flag.Usage()
		os.Exit(2)
	}
	subs := protocols.All()
	if cfg.Spec.Subject != "" || cfg.Spec.Live != nil {
		sub, err := cfg.Spec.Target(protocols.ByName)
		exitOn(err)
		subs = []subject.Subject{sub}
	}
	sess, err := monitor.StartSession(sc)
	exitOn(err)
	if sess.Server != nil && !*jsonOut {
		fmt.Printf("monitor listening on %s\n", sess.Server.URL())
	}
	cfg.Telemetry, cfg.Trace = sess.Recorder, sess.Root

	start := time.Now()
	export := &campaign.Export{Config: cfg}
	// One matrix, run once: the tables and the figure are views of it.
	var results []*campaign.SubjectResult
	if matrix {
		results, err = campaign.Evaluate(context.Background(), subs, cfg)
		exitOn(err)
	}
	if *table1 || *all {
		rows := campaign.Table1(results)
		if *jsonOut {
			export.Table1 = rows
		} else {
			reps, _ := cfg.Reps() // Evaluate ran with it
			n := cmp.Or(cfg.Spec.Instances, parallel.DefaultInstances)
			fmt.Printf("== Table I: branches covered (%d instances, %gh x %d reps) ==\n", n, cfg.Spec.Hours, reps)
			fmt.Print(campaign.RenderTable1(rows))
			fmt.Println()
		}
	}
	if *fig4 || *all {
		if !*jsonOut {
			fmt.Println("== Figure 4: branch coverage over time ==")
		}
		for _, r := range results {
			f := campaign.Figure4(r, 64)
			if *svgDir != "" {
				path := filepath.Join(*svgDir, "figure4-"+strings.ToLower(f.Subject)+".svg")
				exitOn(os.WriteFile(path, []byte(f.SVG()), 0o644))
				if !*jsonOut {
					fmt.Println("wrote", path)
				}
			}
			if *jsonOut {
				export.Figure4 = append(export.Figure4, *f)
			} else {
				fmt.Print(campaign.RenderFigure4(f, 64, 14))
				fmt.Println()
			}
		}
	}
	if *table2 || *all {
		rows := campaign.Table2(results)
		if *jsonOut {
			export.Table2 = campaign.NewTable2Export(rows)
		} else {
			fmt.Println("== Table II: previously-unknown bugs ==")
			fmt.Print(campaign.RenderTable2(rows))
			fmt.Println()
		}
	}
	if *ablation || *all {
		fmt.Println("== Ablations: CMFuzz design choices ==")
		rows, err := campaign.Ablations(context.Background(), subs, cfg)
		exitOn(err)
		fmt.Print(campaign.RenderAblations(rows))
		fmt.Println()
	}
	if *jsonOut {
		// Keep stdout pure JSON: export announcements go to stderr.
		exitOn(sess.Finish(os.Stderr))
		raw, err := export.JSON()
		exitOn(err)
		fmt.Println(string(raw))
		return
	}
	exitOn(sess.Finish(os.Stdout))
	fmt.Printf("(completed in %v wall time)\n", time.Since(start).Round(time.Second))
}

func exitOn(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "cmbench:", err)
		os.Exit(1)
	}
}

package parallel

import (
	"context"
	"errors"
	"testing"

	"cmfuzz/internal/telemetry"
)

// TestBoardMatchesResultAtFinish: the entry the loop publishes in Finish
// repeats the Result, run and instance by instance.
func TestBoardMatchesResultAtFinish(t *testing.T) {
	for _, name := range []string{"DNS", "MQTT"} {
		rec := telemetry.New()
		res, err := Run(context.Background(), mustSubject(t, name),
			Options{Mode: ModeCMFuzz, VirtualHours: 2, Seed: 5, Telemetry: rec})
		if err != nil {
			t.Fatal(err)
		}
		board := rec.Board()
		if len(board) != 1 {
			t.Fatalf("%s: board holds %d runs, want 1", name, len(board))
		}
		run := board[0]
		if run.Run != "CMFuzz" || !run.Done || run.VirtualSeconds != 2*3600 ||
			run.Edges != res.FinalBranches || run.Execs != res.TotalExecs {
			t.Fatalf("%s: run entry %+v against %d branches, %d execs", name, run, res.FinalBranches, res.TotalExecs)
		}
		if len(run.Instances) != len(res.Instances) {
			t.Fatalf("%s: %d board instances, %d in the result", name, len(run.Instances), len(res.Instances))
		}
		for i, in := range res.Instances {
			got := run.Instances[i]
			if got.Execs != in.Execs || got.Edges != in.FinalBranches || got.Crashes != in.Crashes ||
				got.Mutations != in.ConfigMutations || got.Config != in.Config {
				t.Errorf("%s: instance %d on the board %+v, in the result %+v", name, i, got, in)
			}
		}
	}
}

// TestBoardOfCancelledRunStopsAtWatermark: a run cut short is published
// done at the watermark it reached, the last series point, not at the
// horizon it never ran to.
func TestBoardOfCancelledRunStopsAtWatermark(t *testing.T) {
	rec := telemetry.New()
	res, err := Run(newCountdownCtx(400), mustSubject(t, "DNS"),
		Options{Mode: ModeCMFuzz, VirtualHours: 24, Seed: 1, Telemetry: rec})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	pts := res.Series.Points()
	last := pts[len(pts)-1]
	board := rec.Board()
	if len(board) != 1 || !board[0].Done {
		t.Fatalf("board = %+v, want one finished run", board)
	}
	if got := board[0].VirtualSeconds; got != last.T || got >= board[0].HorizonSeconds {
		t.Fatalf("board virtual_seconds = %v, last series point at %v, horizon %v", got, last.T, board[0].HorizonSeconds)
	}
	if board[0].Edges != last.Count {
		t.Fatalf("board edges = %d, last series point %d", board[0].Edges, last.Count)
	}
}

// Scenario: run scripted multi-app sessions — the suite's answer to the
// single-app-in-the-foreground blind spot. Two kinds of session contrast the
// two ways an app can leave the screen:
//
// The commute session launches music, then navigation, and flips between
// them; while the map owns the screen the music app's main thread is parked
// in its looper, yet the MP3 keeps decoding inside mediaserver. The
// per-process attribution makes that split visible: the paused app nearly
// vanishes, the service process does not.
//
// The memory-storm and cached-app-eviction sessions script no kill at all:
// they starve the machine with Pressure events. Backgrounded apps first
// shrink their dalvik heaps when the ActivityManager broadcasts
// onTrimMemory, and once free pages fall below the minfree ladder the
// lowmemorykiller evicts processes by oom_adj score — cached apps first, the
// foreground app never. Kill timing there is a consequence of load, not an
// input.
//
// Sessions run through core.RunScenarioDef on the core.Config and into the
// core.Result that single-app benchmark runs use.
package main

import (
	"flag"
	"fmt"
	"log"

	"agave/internal/core"
	"agave/internal/scenario"
	"agave/internal/sim"
	"agave/internal/stats"
)

func main() {
	durationMS := flag.Int64("duration", 1000, "measured simulated milliseconds")
	flag.Parse()
	if *durationMS <= 0 {
		log.Fatalf("-duration must be a positive number of milliseconds (got %d)", *durationMS)
	}
	cfg := core.DefaultConfig()
	cfg.Duration = sim.Ticks(*durationMS) * sim.Millisecond

	for _, name := range []string{"commute", "memory-storm", "cached-app-eviction"} {
		sc, err := scenario.ByName(name)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("scenario %s: %s\n", sc.Name, sc.Description)
		fmt.Println("timeline (thousandths of the measured interval):")
		for _, ev := range sc.Timeline {
			fmt.Printf("  %s\n", ev)
		}

		res, err := core.RunScenarioDef(sc, cfg)
		if err != nil {
			log.Fatal(err)
		}

		fmt.Printf("\n%d events over %d ms: %d memory references, %d processes (%d live at end), %d threads\n",
			len(sc.Timeline), *durationMS, res.Stats.Total(), res.Processes, res.LiveProcesses, res.Threads)
		if s := res.Session; s.LMKKills > 0 || s.Trims > 0 {
			fmt.Printf("memory pressure: %d onTrimMemory callbacks, %d lowmemorykiller kills %v\n",
				s.Trims, s.LMKKills, s.LMKVictims)
		}
		fmt.Println("\nper-process attribution (top of the fold):")
		for _, row := range stats.NewBreakdown(res.Stats.ByProcess()).TopN(8) {
			fmt.Printf("  %-22s %6.2f%%\n", row.Name, row.Share*100)
		}
		fmt.Println()
	}
}

// Custom workload: the suite is a framework, not a fixed list. This example
// boots the simulated stack and runs a hand-written application against the
// public framework API: its own Dalvik bytecode (assembled from source), an
// AsyncTask pool, Skia drawing, and SurfaceFlinger composition — then prints
// where its references landed.
package main

import (
	"flag"
	"fmt"
	"log"

	"agave/internal/android"
	"agave/internal/dalvik"
	"agave/internal/kernel"
	"agave/internal/sim"
	"agave/internal/stats"
)

// The app's Java side: a hash-like mixing loop, written in the dex assembly
// dialect and verified before it runs.
const appSource = `
.method mix 1
    const v1, 0x1337
    const v2, 0
loop:
    if_ge v2, v0, done
    xor v1, v1, v2
    const v3, 5
    shl v4, v1, v3
    const v3, 11
    shr v5, v1, v3
    add v1, v4, v5
    addi v2, v2, 1
    goto loop
done:
    return v1
.end
`

func main() {
	durationMS := flag.Int64("duration", 1000, "simulated milliseconds to run")
	flag.Parse()
	if *durationMS <= 0 {
		log.Fatalf("-duration must be a positive number of milliseconds (got %d)", *durationMS)
	}
	k := kernel.New(kernel.Config{Quantum: sim.Millisecond})
	defer k.Shutdown()
	sys := android.Boot(k)

	app := sys.NewApp(android.AppConfig{
		Process:      "benchmark",
		Label:        "example.custom",
		Fullscreen:   true,
		Foreground:   true,
		AsyncWorkers: 2,
	})

	file, err := dalvik.Assemble("example.custom.extra", appSource)
	if err != nil {
		log.Fatal(err)
	}

	app.Start(func(ex *kernel.Exec, a *android.App) {
		a.EnsureSurface(ex)
		extra := a.VM.LoadDex(ex, file)
		a.FrameLoop(ex, 20, func(ex *kernel.Exec, n uint64) {
			// Java logic: run our own bytecode on the interpreter.
			v := a.VM.Exec(ex, extra, "mix", int64(200+n%100))
			_ = v
			// Background lookup on the AsyncTask pool.
			if n%5 == 0 {
				a.Tasks.Submit(ex, func(ex *kernel.Exec) {
					a.VM.InterpBulk(ex, extra, 40_000, false)
				})
			}
			// Draw and post.
			a.Canvas.FillRect(ex, 800, 442)
			a.Canvas.Text(ex, 120)
		})
	})

	k.Run(sim.Ticks(*durationMS) * sim.Millisecond)

	fmt.Println("custom workload ran; reference profile:")
	fmt.Println("  instruction regions:")
	for _, row := range stats.NewBreakdown(k.Stats.ByRegion(stats.IFetch)).TopN(6) {
		fmt.Printf("    %-28s %5.1f%%\n", row.Name, row.Share*100)
	}
	fmt.Println("  threads:")
	for _, row := range stats.NewBreakdown(k.Stats.ByThread()).TopN(6) {
		fmt.Printf("    %-28s %5.1f%%\n", row.Name, row.Share*100)
	}
	fmt.Printf("  processes spawned: %d, threads: %d\n", k.ProcessCount(), k.ThreadCount())
}

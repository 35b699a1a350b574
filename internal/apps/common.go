package apps

import (
	"agave/internal/android"
	"agave/internal/kernel"
	"agave/internal/mem"
)

// touchLibraries sprinkles a light reference load across the app's mapped
// libraries with a Zipf-ish weighting: PLT stubs, one-off helper calls,
// string/locale lookups. This is what fills out the long tail of the
// paper's region census — "other (63 items)" in Figure 1 and
// "other (169 items)" in Figure 2 — without inventing regions that receive
// no references.
func touchLibraries(ex *kernel.Exec, a *android.App, intensity uint64) {
	for i, v := range a.LinkMap.Libraries() {
		w := intensity / uint64(i+2) // Zipf by name order
		if w == 0 {
			w = 1
		}
		ex.InCode(v, func() {
			ex.Do(kernel.Work{Fetch: 1, Reads: 1, Data: v}, w)
		})
	}
	// Asset traffic: resource loads from the apk, a database page, and
	// the shared system assets (fonts, framework-res, ICU tables).
	ex.Read(a.Resources, 2+intensity/8)
	ex.Read(a.Database, 1+intensity/32)
	ex.Write(a.Database, 1+intensity/64)
	for i, v := range a.Assets {
		ex.Read(v, 1+intensity/uint64(8*(i+1)))
	}
}

// readAsset models loading an application asset (dictionary page, ebook
// chapter, map tile pack, document chunk) from storage into an anonymous
// buffer and scanning it once.
func readAsset(ex *kernel.Exec, a *android.App, buf *mem.VMA, n uint64) {
	ex.BlockRead(buf, n)
	ex.Do(kernel.Work{Fetch: 3, Reads: 1, Data: buf}, n/8)
}

// uiPump charges one frame's worth of framework overhead: input pipeline,
// view traversal and layout in framework bytecode, plus a little liblog /
// libandroid_runtime native glue. It is also the main thread's lifecycle
// gate: a pause posted by the ActivityManager parks the thread here until
// the matching resume, so every UI-driving workload backgrounds cleanly
// under the scenario engine.
func uiPump(ex *kernel.Exec, a *android.App, bytecodes uint64) {
	a.PausePoint(ex)
	a.VM.InterpBulk(ex, a.FrameworkDex, bytecodes, false)
	rt := a.LinkMap.VMA("libandroid_runtime.so")
	ex.InCode(rt, func() {
		ex.Do(kernel.Work{Fetch: 2, Reads: 1, Data: rt}, bytecodes/24)
	})
	ex.StackWork(bytecodes / 8)
}

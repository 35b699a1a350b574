package android

import (
	"agave/internal/dalvik"
	"agave/internal/kernel"
	"agave/internal/loader"
	"agave/internal/mem"
	"agave/internal/sim"
)

// InstallAPK models `pm install`: the flow behind the paper's pm.apk.view
// workloads. It is the only Agave workload where the dexopt and
// id.defcontainer processes appear — exactly as in the paper's Figures 3
// and 4, where those legend entries are visible only for pm.apk.*.
//
// Steps, each performed by the process that does it on a real device:
//  1. the caller (the pm client) reads the APK from storage and walks the
//     zip central directory;
//  2. the "package" service in system_server verifies the package;
//  3. a fresh id.defcontainer process measures the container;
//  4. a fresh dexopt process reads the classes.dex, runs the verifier's
//     passes over it and writes the optimized (odex) image.
//
// The returned Install completes when dexopt finishes.
func (sys *System) InstallAPK(ex *kernel.Exec, a *App, pkgName string, apkBytes uint64) *Install {
	k := sys.K
	done := &Install{wq: k.NewWaitQueue("install")}

	// 1. Read the APK and parse the zip central directory in the client.
	apkBuf := a.Proc.Layout.MapAnon(a.Proc.AS, apkBytes)
	ex.BlockRead(apkBuf, apkBytes)
	zipScan(ex, a, apkBuf)

	// 2. Package verification in system_server.
	p := lifecycleParcel(pkgName, "install")
	if _, err := sys.Binder.Call(ex, "package", 3, p); err != nil {
		panic(err)
	}

	// 3. id.defcontainer: measure the container. A short-lived zygote
	// child, forked on demand.
	dc := k.Fork(sys.Zygote, "id.defcontainer")
	dcVM := dalvik.ForkVM(sys.ZygoteVM, dc, false)
	k.SpawnThread(dc, "main", "main", func(ex *kernel.Exec) {
		ex.PushCode(dc.Layout.Text)
		fw := dcVM.Adopt(sys.FrameworkFile, dc.AS.FindByName("framework.jar@classes.dex"))
		dcVM.InterpBulk(ex, fw, 20_000, false)
		buf := dc.Layout.MapAnon(dc.AS, apkBytes)
		ex.BlockRead(buf, apkBytes)
		ex.Do(kernel.Work{Fetch: 2, Reads: 1, Data: buf}, apkBytes/16)
	})

	// 4. dexopt: verify and optimize the embedded classes.dex.
	sys.runDexopt(apkBytes/3, done)
	return done
}

// Install tracks an in-flight InstallAPK. The completion flag makes Wait
// immune to the lost-wakeup race where dexopt finishes before the installer
// gets around to waiting.
type Install struct {
	done bool
	wq   *kernel.WaitQueue
}

// Wait blocks until dexopt has finished (returns immediately if it already
// has).
func (in *Install) Wait(ex *kernel.Exec) {
	for !in.done {
		ex.Wait(in.wq)
	}
}

// zipScan walks the APK's central directory and local headers.
func zipScan(ex *kernel.Exec, a *App, apk *mem.VMA) {
	entries := apk.Size() / (24 << 10) // ~24 KiB per asset
	if entries < 8 {
		entries = 8
	}
	libz := a.LinkMap.VMA("libz.so")
	ex.InCode(libz, func() {
		// Central directory scan + CRC of a sample of entries.
		ex.Do(kernel.Work{Fetch: 6, Reads: 1, Data: apk}, entries*64)
		ex.Do(kernel.Work{Fetch: 4, Reads: 1, Data: apk}, apk.Size()/64)
	})
	ex.StackWork(4000)
}

// runDexopt starts the dexopt process and charges the optimization pass:
// read every instruction word of the dex (several verifier passes), write
// the odex image. dexSize approximates the classes.dex payload size. Only
// the work is modelled: the app's bytecode is a renamed view of the stock
// program set (dalvik.StockDex), which passed dex.Verify once, when the
// process first assembled it.
func (sys *System) runDexopt(dexSize uint64, done *Install) {
	k := sys.K
	dp := k.NewProcess("dexopt", 96*loader.KB, 512*loader.KB)
	k.SpawnThread(dp, "dexopt", "dexopt", func(ex *kernel.Exec) {
		ex.PushCode(dp.Layout.Text)
		in := dp.Layout.MapAnon(dp.AS, dexSize)
		out := dp.Layout.MapAnon(dp.AS, dexSize)
		ex.BlockRead(in, dexSize)
		words := dexSize / 4
		// Verifier: three passes over the instruction stream.
		ex.Do(kernel.Work{Fetch: 9, Reads: 1, Data: in}, words*3)
		// Optimizer: rewrite quickened opcodes into the odex.
		ex.Copy(out, in, words, 4)
		// Write-back happens through the page cache.
		ex.Syscall(3000, 800)
		ex.SleepFor(30 * sim.Millisecond)
		done.done = true
		done.wq.WakeAll()
	})
}

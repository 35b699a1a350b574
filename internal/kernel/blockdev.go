package kernel

import (
	"agave/internal/mem"
	"agave/internal/sim"
)

// Storage timing and cost model. Gingerbread devices used slow eMMC/SD-class
// storage behind the libata SFF path, serviced by the ata_sff/0 workqueue
// thread — which is why ata_sff/0 appears as a process in the paper's
// Figures 3 and 4 (most prominently under the SPEC benchmarks, whose only
// companion activity is file input).
const (
	diskSeekTicks  = 80 * sim.Microsecond // per-request overhead
	diskBytesPerUs = 20                   // ~20 MB/s transfer
	// ata instruction/data cost per 512-byte sector serviced.
	ataFetchPerSector = 160
	ataDataPerSector  = 96
)

// ioRequest carries its completion queue by value, so a read takes no
// queue from the kernel's slab, which never takes one back.
type ioRequest struct {
	bytes uint64
	done  bool
	wq    WaitQueue
}

// BlockDevice models the storage device plus its ata_sff/0 service thread.
type BlockDevice struct {
	queue *MsgQueue[*ioRequest]
	proc  *Process

	// BytesRead counts total bytes transferred, for tests.
	BytesRead uint64
}

func newBlockDevice(k *Kernel) *BlockDevice {
	d := &BlockDevice{queue: NewMsgQueue[*ioRequest](k, "ata.requests")}
	d.proc = k.NewKernelProcess("ata_sff/0")
	k.SpawnThread(d.proc, "ata_sff/0", "ata_sff/0", d.serviceLoop)
	return d
}

// serviceLoop is the ata_sff/0 kernel thread: pop a request, charge the
// programmed-IO/DMA-completion work, model the transfer latency, complete.
func (d *BlockDevice) serviceLoop(ex *Exec) {
	kv := d.proc.Layout.Kernel
	for {
		req := d.queue.Recv(ex)
		sectors := (req.bytes + 511) / 512
		ex.Do(Work{Fetch: ataFetchPerSector, Reads: ataDataPerSector * 2 / 3,
			Writes: ataDataPerSector / 3, Data: kv}, sectors)
		ex.SleepFor(diskSeekTicks + sim.Ticks(req.bytes/diskBytesPerUs)*sim.Microsecond)
		d.BytesRead += req.bytes
		req.done = true
		req.wq.WakeAll()
	}
}

// BlockRead models a synchronous buffered read of n bytes into dst: VFS
// syscall entry, a trip through the ata_sff/0 service thread, then the
// copy_to_user into dst performed in kernel mode on behalf of the caller.
func (ex *Exec) BlockRead(dst *mem.VMA, n uint64) {
	ex.Syscall(650, 120)
	req := &ioRequest{bytes: n}
	ex.K.InitWaitQueue(&req.wq, "io.done")
	ex.K.Disk.queue.Send(ex, req)
	for !req.done {
		ex.WaitFree(&req.wq)
	}
	// copy_to_user: kernel text, reads from the page cache (kernel
	// region), writes into the user buffer.
	kv := ex.P.Layout.Kernel
	ex.PushCode(kv)
	ex.Copy(dst, kv, (n+3)/4, 2)
	ex.PopCode()
}

package binder

import (
	"fmt"

	"agave/internal/kernel"
	"agave/internal/mem"
)

// Cost model for one transaction leg (ioctl entry, thread wakeup, buffer
// management), in kernel instructions / kernel data refs.
const (
	ioctlFetch = 900
	ioctlData  = 160
)

// binderMapSize is the per-process /dev/binder transaction buffer mapping.
const binderMapSize = 1 << 20

// Transaction is one in-flight call.
type Transaction struct {
	Code  int32
	Data  *Parcel
	Reply *Parcel

	sender  *kernel.Thread
	done    bool
	aborted bool
	// oneway marks a TF_ONE_WAY transaction: no client waits on wq, so the
	// serving thread owns the struct once done and recycles it.
	oneway bool
	// wq is the reply wait queue, embedded by value: a fresh queue per call
	// was one of the hottest allocation sites in a scenario run. Recycled
	// transactions re-init it, keeping the waiter backing array.
	wq kernel.WaitQueue
}

// Handler runs on a service's binder thread to serve a transaction. It
// should read txn.Data and populate txn.Reply.
type Handler func(ex *kernel.Exec, txn *Transaction)

// Service is a registered Binder endpoint.
type Service struct {
	Proc    *kernel.Process
	Handler Handler

	// Owner carries the server object behind the service, for packages
	// that need to map a looked-up service back to its implementation
	// (binder itself never touches it). Keeping the back-pointer on the
	// per-machine service — rather than in a process-global side table —
	// is what lets the suite engine run machines concurrently without
	// shared state.
	Owner any

	queue *kernel.MsgQueue[*Transaction]
	// Calls counts served transactions, for tests.
	Calls uint64
}

// FaultHook is consulted by Call and CallOneway after the service lookup
// but before the transaction is queued; a non-nil error aborts the
// transaction with that error, after the client-side ioctl cost has been
// charged (the attempt enters the kernel before the driver rejects it).
// It is the attachment point of the scenario fault-injection plane — nil,
// the default, means transactions never fail by injection.
type FaultHook func(service string) error

// Driver is the /dev/binder device: the context manager's service registry
// plus per-process transaction buffer mappings.
type Driver struct {
	k         *kernel.Kernel
	services  map[string]*Service
	maps      map[*kernel.Process]*mem.VMA
	faultHook FaultHook

	// txnFree recycles Transaction structs. Call returns its own once the
	// reply is extracted; serveLoop returns oneway transactions nobody
	// waits on. The reply parcel escapes to the caller, so it is never
	// recycled — only the transaction shell and its embedded wait queue.
	// Unlike looper messages, a transaction is shared by pointer between
	// client and server, so it cannot travel by value; without this pool
	// BenchmarkScenarioDense makes about 10% more allocations per op.
	txnFree []*Transaction
}

// getTxn hands out a recycled (or fresh) transaction with every field reset;
// the embedded reply queue keeps its waiter backing array across reuses.
func (d *Driver) getTxn(code int32, data *Parcel, sender *kernel.Thread, oneway bool) *Transaction {
	var txn *Transaction
	if n := len(d.txnFree); n > 0 {
		txn = d.txnFree[n-1]
		d.txnFree[n-1] = nil
		d.txnFree = d.txnFree[:n-1]
		txn.Reply = nil
		txn.done = false
		txn.aborted = false
	} else {
		txn = &Transaction{}
	}
	txn.Code = code
	txn.Data = data
	txn.sender = sender
	txn.oneway = oneway
	d.k.InitWaitQueue(&txn.wq, "binder.reply")
	return txn
}

func (d *Driver) putTxn(txn *Transaction) {
	txn.Data = nil
	txn.Reply = nil
	txn.sender = nil
	d.txnFree = append(d.txnFree, txn)
}

// SetFaultHook installs (or, with nil, removes) the driver's fault hook.
func (d *Driver) SetFaultHook(h FaultHook) { d.faultHook = h }

// NewDriver creates the device. A real system has exactly one; tests may
// make more.
func NewDriver(k *kernel.Kernel) *Driver {
	return &Driver{
		k:        k,
		services: make(map[string]*Service),
		maps:     make(map[*kernel.Process]*mem.VMA),
	}
}

// bufferFor lazily maps the process's /dev/binder transaction buffer. The
// region name contributes to the paper's "other" data-region census.
func (d *Driver) bufferFor(p *kernel.Process) *mem.VMA {
	if v, ok := d.maps[p]; ok {
		return v
	}
	v := p.AS.MapAnywhere(mem.MmapBase, binderMapSize, "/dev/binder",
		mem.PermRead, mem.ClassDevice)
	d.maps[p] = v
	return v
}

// Register installs a service hosted by proc with nThreads binder pool
// threads and returns it. Thread names follow Android's "Binder Thread #N"
// convention; they all account to the "Binder Thread" group.
func (d *Driver) Register(proc *kernel.Process, name string, nThreads int, h Handler) *Service {
	if _, dup := d.services[name]; dup {
		panic(fmt.Sprintf("binder: duplicate service %q", name))
	}
	s := &Service{
		Proc:    proc,
		Handler: h,
		queue:   kernel.NewMsgQueue[*Transaction](d.k, "binder.service"),
	}
	d.services[name] = s
	d.bufferFor(proc)
	for i := 0; i < nThreads; i++ {
		d.k.SpawnThread(proc, poolThreadName(i), "Binder Thread", func(ex *kernel.Exec) {
			d.serveLoop(ex, s)
		})
	}
	return s
}

// binderThreadNames covers the pool sizes every service actually uses, so
// registering a service formats no thread names; Sprintf only runs for
// an out-of-range (test-sized) pool.
var binderThreadNames = [...]string{
	"Binder Thread #1", "Binder Thread #2", "Binder Thread #3",
	"Binder Thread #4", "Binder Thread #5", "Binder Thread #6",
	"Binder Thread #7", "Binder Thread #8",
}

func poolThreadName(i int) string {
	if i < len(binderThreadNames) {
		return binderThreadNames[i]
	}
	return fmt.Sprintf("Binder Thread #%d", i+1)
}

// Lookup finds a registered service.
func (d *Driver) Lookup(name string) (*Service, bool) {
	s, ok := d.services[name]
	return s, ok
}

// Unregister removes a service from the context manager, as happens when its
// hosting process dies. Killing the service's binder pool threads is the
// caller's job (they belong to the dead process); once the name is free a
// relaunched process may Register it again. Unregistering an unknown name is
// a no-op.
func (d *Driver) Unregister(name string) {
	delete(d.services, name)
}

// Sender reports the thread that issued the transaction — the moral
// equivalent of binder_transaction_data's sender_pid: services use it to
// attribute sessions to their client process (and to tear them down when
// that process dies).
func (t *Transaction) Sender() *kernel.Thread { return t.sender }

func (d *Driver) serveLoop(ex *kernel.Exec, s *Service) {
	buf := d.bufferFor(s.Proc)
	kv := s.Proc.Layout.Kernel
	for {
		txn := s.queue.Recv(ex)
		// Kernel copies the parcel into this process's binder buffer;
		// the service thread then reads it out.
		ex.Syscall(ioctlFetch/2, ioctlData/2)
		ex.InCode(kv, func() {
			ex.Do(kernel.Work{Fetch: 2, Writes: 1, Data: buf}, txn.Data.Words())
		})
		ex.Read(buf, txn.Data.Words())
		s.Handler(ex, txn)
		// Reply copy back through the kernel.
		reply := txn.Reply
		if reply == nil {
			reply = NewParcel()
			txn.Reply = reply
		}
		ex.Syscall(ioctlFetch/2, ioctlData/2)
		txn.done = true
		txn.wq.WakeAll()
		s.Calls++
		if txn.oneway {
			// No client will ever read this transaction; recycle it here.
			d.putTxn(txn)
		}
	}
}

// Call performs a synchronous transaction from the calling thread to the
// named service, blocking until the reply arrives. It returns the reply
// parcel (never nil).
func (d *Driver) Call(ex *kernel.Exec, service string, code int32, data *Parcel) (*Parcel, error) {
	s, ok := d.services[service]
	if !ok {
		return nil, fmt.Errorf("binder: no service %q", service)
	}
	if data == nil {
		data = NewParcel()
	}
	buf := d.bufferFor(ex.P)
	// Client-side ioctl: marshal the parcel out of this process.
	ex.Syscall(ioctlFetch, ioctlData)
	ex.Read(buf, data.Words())
	if d.faultHook != nil {
		if ferr := d.faultHook(service); ferr != nil {
			return nil, ferr
		}
	}
	txn := d.getTxn(code, data, ex.T, false)
	s.queue.Send(ex, txn)
	for !txn.done {
		ex.WaitFree(&txn.wq)
	}
	if txn.aborted {
		// DEAD_REPLY: the service died with this transaction still queued.
		ex.Syscall(ioctlFetch/3, ioctlData/3)
		d.putTxn(txn)
		return nil, fmt.Errorf("binder: transaction to %q aborted: service died", service)
	}
	// Reply lands in the client's binder buffer and is read out.
	ex.Syscall(ioctlFetch/3, ioctlData/3)
	ex.Write(buf, txn.Reply.Words())
	ex.Read(buf, txn.Reply.Words())
	reply := txn.Reply
	reply.Rewind()
	// The reply escapes to the caller; the transaction shell does not.
	d.putTxn(txn)
	return reply, nil
}

// CallOneway performs an asynchronous (TF_ONE_WAY) transaction: the parcel
// is marshaled and queued to the service, and the caller continues without
// waiting for a reply. The framework's fault-injection pings use it so a
// transaction aimed at a crashing service can never wedge the sender; the
// fault hook applies exactly as in Call.
func (d *Driver) CallOneway(ex *kernel.Exec, service string, code int32, data *Parcel) error {
	s, ok := d.services[service]
	if !ok {
		return fmt.Errorf("binder: no service %q", service)
	}
	if data == nil {
		data = NewParcel()
	}
	buf := d.bufferFor(ex.P)
	ex.Syscall(ioctlFetch, ioctlData)
	ex.Read(buf, data.Words())
	if d.faultHook != nil {
		if ferr := d.faultHook(service); ferr != nil {
			return ferr
		}
	}
	txn := d.getTxn(code, data, ex.T, true)
	s.queue.Send(ex, txn)
	return nil
}

// AbortPending completes every queued-but-unserved transaction of a dead
// service with an error, waking the senders — binder's DEAD_REPLY path.
// Callers kill the service's process (and its binder pool) first;
// AbortPending then releases any client that had already queued a
// transaction, while later calls fail at lookup once the name is
// unregistered. It reports how many transactions were aborted.
func (d *Driver) AbortPending(s *Service) int {
	n := 0
	for {
		txn, ok := s.queue.TryRecv()
		if !ok {
			break
		}
		txn.aborted = true
		txn.done = true
		txn.wq.WakeAll()
		if txn.oneway {
			d.putTxn(txn)
		}
		n++
	}
	return n
}

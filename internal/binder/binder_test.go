package binder

import (
	"strings"
	"testing"
	"testing/quick"

	"agave/internal/kernel"
	"agave/internal/sim"
	"agave/internal/stats"
)

func TestParcelRoundtrip(t *testing.T) {
	p := NewParcel()
	p.WriteInt32(-42)
	p.WriteString("android.app.IActivityManager")
	p.WriteInt64(1 << 40)
	p.Rewind()
	if v, err := p.ReadInt32(); err != nil || v != -42 {
		t.Fatalf("ReadInt32 = %d, %v", v, err)
	}
	if s, err := p.ReadString(); err != nil || s != "android.app.IActivityManager" {
		t.Fatalf("ReadString = %q, %v", s, err)
	}
	if v, err := p.ReadInt64(); err != nil || v != 1<<40 {
		t.Fatalf("ReadInt64 = %d, %v", v, err)
	}
}

func TestParcelUnderrun(t *testing.T) {
	p := NewParcel()
	p.WriteInt32(1)
	p.Rewind()
	if _, err := p.ReadInt64(); err == nil {
		t.Fatal("underrun read succeeded")
	}
}

func TestParcelAlignment(t *testing.T) {
	p := NewParcel()
	p.WriteString("abc") // 3 bytes, padded to 4
	p.WriteInt32(7)
	p.Rewind()
	if s, _ := p.ReadString(); s != "abc" {
		t.Fatalf("string = %q", s)
	}
	if v, err := p.ReadInt32(); err != nil || v != 7 {
		t.Fatalf("post-pad int = %d, %v", v, err)
	}
	if p.Len()%4 != 0 {
		t.Fatalf("parcel length %d not word aligned", p.Len())
	}
}

func TestParcelRoundtripProperty(t *testing.T) {
	f := func(a int32, s string, b int64) bool {
		p := NewParcel()
		p.WriteInt32(a)
		p.WriteString(s)
		p.WriteInt64(b)
		p.Rewind()
		ga, e1 := p.ReadInt32()
		gs, e2 := p.ReadString()
		gb, e3 := p.ReadInt64()
		return e1 == nil && e2 == nil && e3 == nil && ga == a && gs == s && gb == b
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func setup(t *testing.T) (*kernel.Kernel, *Driver, *kernel.Process, *kernel.Process) {
	t.Helper()
	k := kernel.New(kernel.Config{Quantum: 50 * sim.Microsecond, Seed: 5})
	t.Cleanup(k.Shutdown)
	server := k.NewProcess("system_server", 1<<20, 1<<20)
	client := k.NewProcess("benchmark", 1<<20, 1<<20)
	return k, NewDriver(k), server, client
}

func TestCallRoundtrip(t *testing.T) {
	k, d, server, client := setup(t)
	d.Register(server, "echo", 2, func(ex *kernel.Exec, txn *Transaction) {
		v, _ := txn.Data.ReadInt32()
		txn.Reply = NewParcel()
		txn.Reply.WriteInt32(v * 2)
	})
	var got int32
	k.SpawnThread(client, "main", "main", func(ex *kernel.Exec) {
		ex.PushCode(client.Layout.Text)
		data := NewParcel()
		data.WriteInt32(21)
		reply, err := d.Call(ex, "echo", 1, data)
		if err != nil {
			t.Error(err)
			return
		}
		got, _ = reply.ReadInt32()
	})
	k.Run(10 * sim.Millisecond)
	if got != 42 {
		t.Fatalf("echo reply = %d, want 42", got)
	}
}

func TestCallUnknownService(t *testing.T) {
	k, d, _, client := setup(t)
	called := false
	k.SpawnThread(client, "main", "main", func(ex *kernel.Exec) {
		ex.PushCode(client.Layout.Text)
		if _, err := d.Call(ex, "ghost", 1, nil); err == nil {
			t.Error("call to unknown service succeeded")
		}
		called = true
	})
	k.Run(5 * sim.Millisecond)
	if !called {
		t.Fatal("client never ran")
	}
}

func TestBinderThreadsServeConcurrently(t *testing.T) {
	k, d, server, client := setup(t)
	svc := d.Register(server, "work", 2, func(ex *kernel.Exec, txn *Transaction) {
		ex.SleepFor(2 * sim.Millisecond)
		txn.Reply = NewParcel()
		txn.Reply.WriteInt32(0)
	})
	done := 0
	for i := 0; i < 2; i++ {
		k.SpawnThread(client, "caller", "caller", func(ex *kernel.Exec) {
			ex.PushCode(client.Layout.Text)
			if _, err := d.Call(ex, "work", 1, nil); err != nil {
				t.Error(err)
			}
			done++
		})
	}
	k.Run(20 * sim.Millisecond)
	if done != 2 {
		t.Fatalf("completed %d/2 calls", done)
	}
	if svc.Calls != 2 {
		t.Fatalf("service served %d calls", svc.Calls)
	}
}

func TestTransactionBuffersAttributed(t *testing.T) {
	k, d, server, client := setup(t)
	d.Register(server, "echo", 1, func(ex *kernel.Exec, txn *Transaction) {
		txn.Reply = NewParcel()
		txn.Reply.WriteString(strings.Repeat("r", 4096))
	})
	k.SpawnThread(client, "main", "main", func(ex *kernel.Exec) {
		ex.PushCode(client.Layout.Text)
		data := NewParcel()
		data.WriteString(strings.Repeat("d", 8192))
		if _, err := d.Call(ex, "echo", 1, data); err != nil {
			t.Error(err)
		}
	})
	k.Run(10 * sim.Millisecond)
	if got := k.Stats.ByRegion()[("/dev/binder")]; got == 0 {
		t.Fatal("no references attributed to /dev/binder transaction buffers")
	}
	if got := k.Stats.ByThread()["Binder Thread"]; got == 0 {
		t.Fatal("binder pool threads earned no references")
	}
}

func TestDuplicateServicePanics(t *testing.T) {
	_, d, server, _ := setup(t)
	d.Register(server, "dup", 1, func(ex *kernel.Exec, txn *Transaction) {})
	defer func() {
		if recover() == nil {
			t.Fatal("duplicate Register did not panic")
		}
	}()
	d.Register(server, "dup", 1, func(ex *kernel.Exec, txn *Transaction) {})
}

func TestLookup(t *testing.T) {
	_, d, server, _ := setup(t)
	want := d.Register(server, "svc", 1, func(ex *kernel.Exec, txn *Transaction) {})
	got, ok := d.Lookup("svc")
	if !ok || got != want {
		t.Fatal("Lookup failed")
	}
	if _, ok := d.Lookup("none"); ok {
		t.Fatal("Lookup of missing service succeeded")
	}
}

var _ = stats.IFetch // keep stats imported for region asserts above

package netsim

import (
	"bytes"
	"reflect"
	"sync"
	"testing"
	"time"
)

func TestPathSelection(t *testing.T) {
	n := New(Gemini())
	cases := []struct {
		size int
		want Path
	}{
		{0, SMSG},
		{1024, SMSG},
		{1025, FMA},
		{64 * 1024, FMA},
		{64*1024 + 1, BTE},
		{100 << 20, BTE},
	}
	for _, c := range cases {
		if got := n.Select(c.size); got != c.want {
			t.Errorf("select(%d): want %v, got %v", c.size, c.want, got)
		}
	}
}

func TestCostModel(t *testing.T) {
	n := New(Gemini())
	// Tiny message: latency dominated.
	d, p := n.Cost(8)
	if p != SMSG {
		t.Fatalf("8-byte message should ride SMSG, got %v", p)
	}
	if d < n.cfg.SMSG.Latency {
		t.Fatalf("cost below latency floor: %v", d)
	}
	// Bulk message: bandwidth dominated; 60 MB at 6 GB/s ~ 10 ms.
	db, pb := n.Cost(60 << 20)
	if pb != BTE {
		t.Fatalf("bulk message should ride BTE, got %v", pb)
	}
	if db < 9*time.Millisecond || db > 12*time.Millisecond {
		t.Fatalf("bulk cost out of range: %v", db)
	}
	// Monotonicity in size (within one path).
	d1, _ := n.Cost(1 << 20)
	d2, _ := n.Cost(2 << 20)
	if d2 <= d1 {
		t.Fatal("cost must grow with size")
	}
}

func TestTransferCopiesAndAccounts(t *testing.T) {
	n := New(Gemini())
	src := []byte{1, 2, 3, 4, 5}
	dst := make([]byte, len(src))
	d := n.TransferInto(dst, src)
	if !bytes.Equal(src, dst) {
		t.Fatal("transfer must copy the payload")
	}
	dst[0] = 99
	if src[0] == 99 {
		t.Fatal("transfer must not alias the source")
	}
	if d <= 0 {
		t.Fatal("transfer must report a positive modeled duration")
	}
	st := n.Stats()
	if st.BytesMoved != 5 || st.Transfers != 1 || st.ModeledBusy != d {
		t.Fatalf("accounting wrong: %+v", st)
	}
}

// TestChargeAccountsLikeTransfer: charging a size moves the counters
// and modeled busy time exactly as transferring that many bytes does.
func TestChargeAccountsLikeTransfer(t *testing.T) {
	charged, moved := New(Gemini()), New(Gemini())
	for _, size := range []int{0, 100, 4 << 10, 1 << 20} {
		if c, m := charged.Charge(size), moved.TransferInto(make([]byte, size), make([]byte, size)); c != m {
			t.Fatalf("size %d: charged %v, transfer took %v", size, c, m)
		}
	}
	if c, m := charged.Stats(), moved.Stats(); !reflect.DeepEqual(c, m) {
		t.Fatalf("charge accounting %+v, transfer accounting %+v", c, m)
	}
}

func TestTransferConcurrentAccounting(t *testing.T) {
	n := New(Gemini())
	const workers, each = 8, 50
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			src, dst := make([]byte, 100), make([]byte, 100)
			for i := 0; i < each; i++ {
				n.TransferInto(dst, src)
			}
		}()
	}
	wg.Wait()
	st := n.Stats()
	if st.BytesMoved != workers*each*100 || st.Transfers != workers*each {
		t.Fatalf("concurrent accounting lost updates: %+v", st)
	}
}

func TestTimeScaleSleep(t *testing.T) {
	cfg := Gemini()
	cfg.TimeScale = 0.001 // sleep 1000x the modeled duration
	n := New(cfg)
	start := time.Now()
	n.TransferInto(make([]byte, 8), make([]byte, 8)) // ~1.5us modeled -> ~1.5ms wall
	if time.Since(start) < time.Millisecond {
		t.Fatal("TimeScale should stretch the transfer into wall time")
	}
}

func TestPathString(t *testing.T) {
	if SMSG.String() != "SMSG" || FMA.String() != "FMA" || BTE.String() != "BTE" {
		t.Fatal("path names wrong")
	}
	if Path(9).String() == "" {
		t.Fatal("unknown path must still format")
	}
}

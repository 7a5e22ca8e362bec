package dart

import (
	"bytes"
	"strings"
	"testing"

	"insitu/internal/bufpool"
	"insitu/internal/faults"
	"insitu/internal/obs"
)

// TestEndpointStatsAttributeToOwner: transfer noise (retries) and moved
// bytes are charged to the endpoint owning the region in flight, not to
// the bucket issuing the RPC, and the per-endpoint series carry the
// owner's tenant label — including for endpoints registered before the
// plane attached.
func TestEndpointStatsAttributeToOwner(t *testing.T) {
	f := faultyFabric(faults.Config{Seed: 7, Default: faults.Rates{Drop: 0.5}}, 64)
	alpha := f.RegisterT("alpha/sim-0", "alpha")
	beta := f.RegisterT("beta/sim-0", "beta")
	pl := obs.NewPlane()
	f.SetPlane(pl)
	bucket := f.Register("bucket-0")

	data := []byte("noisy tenant payload")
	h := alpha.RegisterMem(data)
	for i := 0; i < 30; i++ {
		got, _, err := bucket.Get(h)
		if err != nil {
			t.Fatalf("pull %d: %v", i, err)
		}
		bufpool.Put(got)
	}

	as := alpha.Stats()
	if as.Retries == 0 {
		t.Fatal("a 50% drop rate over 30 pulls must charge retries to the owner")
	}
	if got := alpha.bytes.Load(); got != int64(30*len(data)) {
		t.Fatalf("owner transfer bytes = %d, want %d", got, 30*len(data))
	}
	if bs := beta.Stats(); bs.Retries != 0 || bs.ChecksumFailures != 0 || beta.bytes.Load() != 0 {
		t.Fatalf("idle tenant charged for neighbour noise: %+v", bs)
	}
	// The fabric-wide tallies are untouched by attribution.
	if fabricStats(f).Retries < as.Retries {
		t.Fatal("fabric-wide retry count must cover the owner's share")
	}

	var buf bytes.Buffer
	if err := pl.Registry().WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		`dart_endpoint_retries_total{endpoint="alpha/sim-0",tenant="alpha"}`,
		`dart_endpoint_transfer_bytes_total{endpoint="alpha/sim-0",tenant="alpha"}`,
		`dart_endpoint_retries_total{endpoint="bucket-0",tenant="default"}`,
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("prometheus export missing series %s", want)
		}
	}
}

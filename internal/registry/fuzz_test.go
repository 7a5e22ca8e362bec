package registry_test

import (
	"encoding/json"
	"errors"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"insitu/internal/registry"
)

// FuzzParseConfig asserts the front door's contract on arbitrary bytes:
// ParseConfig returns a config, a JSON decoding error, or
// *ValidationError values — it never panics — and whatever it accepts,
// Build constructs (or refuses with an error) and Close releases
// without panicking either. Only the store and journal directories are
// redirected, and fabrics too large to build cheaply are not built:
// sizing is validated, not explored, here.
func FuzzParseConfig(f *testing.F) {
	for _, dir := range []string{"../../examples/configs", "../../benchmark/configs"} {
		paths, err := filepath.Glob(filepath.Join(dir, "*.json"))
		if err != nil || len(paths) == 0 {
			f.Fatalf("no seed configs under %s: %v", dir, err)
		}
		for _, p := range paths {
			data, err := os.ReadFile(p)
			if err != nil {
				f.Fatal(err)
			}
			f.Add(data)
		}
	}
	f.Add([]byte(`{"tenants": [{"name": "a", "sim": {"nx": 8, "ny": 8, "nz": 8, "px": 1, "py": 1, "pz": 1},
		"analyses": [{"analysis": "stats", "placement": "hybrid"}]}]}`))
	f.Add([]byte(`{"tenants": [{"sim": {"nx": 8, "ny": 0}, "analyses": [{"analysis": "viz", "factor": -2}]}]}`))
	f.Add([]byte(`{"tenants": [`))
	f.Add([]byte(`{"fabric": {"buckets": "two"}}`))

	dir := f.TempDir()
	f.Fuzz(func(t *testing.T, data []byte) {
		cfg, err := registry.ParseConfig(data)
		if err != nil {
			var ve *registry.ValidationError
			var syn *json.SyntaxError
			var typ *json.UnmarshalTypeError
			if !errors.As(err, &ve) && !errors.As(err, &syn) && !errors.As(err, &typ) &&
				!errors.Is(err, io.EOF) && !errors.Is(err, io.ErrUnexpectedEOF) &&
				!strings.HasPrefix(err.Error(), "json: ") {
				t.Fatalf("untyped parse error: %v", err)
			}
			return
		}
		if cfg.TransitBuckets() > 64 || cfg.Fabric.DSServers > 64 || len(cfg.Tenants) > 8 {
			return
		}
		if cfg.Store != nil {
			cfg.Store.Dir = filepath.Join(dir, "store")
		}
		if cfg.Recovery != nil {
			cfg.Recovery.Dir = filepath.Join(dir, "journal")
		}
		b, err := registry.Build(cfg)
		if err != nil {
			return
		}
		if err := b.Close(); err != nil {
			t.Fatalf("Close: %v", err)
		}
	})
}

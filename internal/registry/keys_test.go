package registry_test

import (
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"testing"

	"insitu/internal/registry"
)

// committedConfigDirs hold every config the repository runs: the
// examples (goldens, soaks, s3dpipe) and the benchmark workloads.
var committedConfigDirs = []string{"../../examples/configs", "../../benchmark/configs"}

// unsetKeyAllowList names the leaf keys no committed config sets that
// may stay anyway, each with its reason. Every other key is set by at
// least one committed config, so each one selects behaviour something
// runs.
var unsetKeyAllowList = map[string]string{
	"tenants[].analyses[].var_y":  "picks an analysis's input (the conditioned or Y variable), not a tuning knob",
	"tenants[].analyses[].x_bins": "sizes the contingency table over its inputs, not a tuning knob",
	"tenants[].analyses[].y_bins": "sizes the contingency table over its inputs, not a tuning knob",
	"tenants[].codec.max_error":   "shares the CodecConfig type with analyses[].codec, which sets it",
}

// TestEveryConfigKeyIsSetByACommittedConfig: a config key is a
// dimension every reader, validator and scenario generator must cover,
// so a key no committed config sets is a configuration nothing
// validates. It walks Config's JSON key tree and fails on any leaf key
// that no file under committedConfigDirs sets and that the allow-list
// does not name; an allow-list entry a config has since started to set
// (or whose key is gone) fails too.
func TestEveryConfigKeyIsSetByACommittedConfig(t *testing.T) {
	var leaves []string
	configLeaves("", reflect.TypeOf(registry.Config{}), &leaves)
	sort.Strings(leaves)

	set := map[string]bool{}
	files := 0
	for _, dir := range committedConfigDirs {
		paths, err := filepath.Glob(filepath.Join(dir, "*.json"))
		if err != nil {
			t.Fatal(err)
		}
		for _, path := range paths {
			data, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := registry.ParseConfig(data); err != nil {
				t.Fatalf("%s: %v", path, err)
			}
			var doc any
			if err := json.Unmarshal(data, &doc); err != nil {
				t.Fatalf("%s: %v", path, err)
			}
			jsonPaths("", doc, set)
			files++
		}
	}
	if files == 0 {
		t.Fatal("no committed configs found")
	}

	known := map[string]bool{}
	var unset []string
	for _, key := range leaves {
		known[key] = true
		if !set[key] {
			if _, ok := unsetKeyAllowList[key]; !ok {
				unset = append(unset, key)
			}
		}
	}
	t.Logf("%d leaf keys over %d committed configs; allow-list of %d", len(leaves), files, len(unsetKeyAllowList))
	if len(unset) > 0 {
		t.Errorf("%d config keys are set by no committed config (delete them, or set them in a config that runs):\n  %s",
			len(unset), strings.Join(unset, "\n  "))
	}
	for key, reason := range unsetKeyAllowList {
		switch {
		case !known[key]:
			t.Errorf("allow-listed key %s is not a Config key", key)
		case set[key]:
			t.Errorf("allow-listed key %s is set by a committed config; drop it from the allow-list (%s)", key, reason)
		}
	}
}

// configLeaves appends the JSON path of every leaf key of t: a field
// whose value is not an object. Array elements are spelled "[]", and an
// embedded struct without a JSON name is inlined as encoding/json does.
func configLeaves(prefix string, t reflect.Type, out *[]string) {
	for i := 0; i < t.NumField(); i++ {
		f := t.Field(i)
		name, _, _ := strings.Cut(f.Tag.Get("json"), ",")
		if name == "-" || !f.IsExported() {
			continue
		}
		ft := f.Type
		if ft.Kind() == reflect.Pointer {
			ft = ft.Elem()
		}
		if f.Anonymous && name == "" && ft.Kind() == reflect.Struct {
			configLeaves(prefix, ft, out)
			continue
		}
		if name == "" {
			name = f.Name
		}
		path := prefix + name
		switch {
		case ft.Kind() == reflect.Struct:
			configLeaves(path+".", ft, out)
		case ft.Kind() == reflect.Slice && ft.Elem().Kind() == reflect.Struct:
			configLeaves(path+"[].", ft.Elem(), out)
		default:
			*out = append(*out, path)
		}
	}
}

// jsonPaths records the path of every key set inside v, a decoded JSON
// value found at path, spelled the way configLeaves spells them.
func jsonPaths(path string, v any, set map[string]bool) {
	switch v := v.(type) {
	case map[string]any:
		for k, child := range v {
			p := k
			if path != "" {
				p = path + "." + k
			}
			set[p] = true
			jsonPaths(p, child, set)
		}
	case []any:
		for _, child := range v {
			jsonPaths(path+"[]", child, set)
		}
	}
}

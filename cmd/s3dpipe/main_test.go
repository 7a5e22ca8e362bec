package main

import (
	"bytes"
	"strings"
	"testing"

	"insitu/internal/registry"
)

const examples = "../../examples/configs/"

// cli runs the launcher in-process and returns its exit status and what
// it wrote to each stream.
func cli(args ...string) (code int, stdout, stderr string) {
	var out, errb bytes.Buffer
	code = run(args, &out, &errb)
	return code, out.String(), errb.String()
}

func TestNoConfigPrintsUsage(t *testing.T) {
	code, stdout, stderr := cli()
	if code != 2 {
		t.Errorf("exit %d, want 2", code)
	}
	if stdout != "" || !strings.Contains(stderr, "-config examples/configs/quickstart.json") {
		t.Errorf("usage must go to stderr and name the quickstart config\nstdout: %q\nstderr: %s", stdout, stderr)
	}
}

// TestRemovedFlagPointsAtMigrationTable: a scenario flag from before
// configs were the only front door fails, and the error says where its
// replacement is documented.
func TestRemovedFlagPointsAtMigrationTable(t *testing.T) {
	code, _, stderr := cli("-nx", "16")
	if code == 0 {
		t.Error("exit 0 for a removed flag")
	}
	for _, want := range []string{"-nx", "PIPELINES.md", "Migrating from flags"} {
		if !strings.Contains(stderr, want) {
			t.Errorf("stderr does not mention %q:\n%s", want, stderr)
		}
	}
}

// rows counts the lines of out that start with prefix.
func rows(out, prefix string) int {
	return strings.Count("\n"+out, "\n"+prefix)
}

func TestQuickstartPrintsTableII(t *testing.T) {
	code, stdout, stderr := cli("-config", examples+"quickstart.json")
	if code != 0 {
		t.Fatalf("exit %d: %s", code, stderr)
	}
	if rows(stdout, "analysis ") != 1 || !strings.Contains(stdout, "in-transit\n") {
		t.Errorf("no single Table II header in:\n%s", stdout)
	}
	cfg, err := registry.LoadConfig(examples + "quickstart.json")
	if err != nil {
		t.Fatal(err)
	}
	b, err := registry.Build(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	for _, a := range b.Tenants[0].Analyses {
		if rows(stdout, a.Name()+"  ") != 1 {
			t.Errorf("want one Table II row for %q in:\n%s", a.Name(), stdout)
		}
	}
	if rows(stdout, "tenant ") != 1 || rows(stdout, "fabric:") != 1 {
		t.Errorf("want one tenant block and one fabric block in:\n%s", stdout)
	}
}

func TestTenantsPrintsOneBlockPerTenantAndOneFabric(t *testing.T) {
	code, stdout, stderr := cli("-config", examples+"tenants.json", "-steps", "4")
	if code != 0 {
		t.Fatalf("exit %d: %s", code, stderr)
	}
	cfg, err := registry.LoadConfig(examples + "tenants.json")
	if err != nil {
		t.Fatal(err)
	}
	for _, tn := range cfg.Tenants {
		if rows(stdout, "tenant "+tn.Name+":") != 1 {
			t.Errorf("want one block for tenant %q in:\n%s", tn.Name, stdout)
		}
	}
	if rows(stdout, "analysis ") != len(cfg.Tenants) {
		t.Errorf("want one Table II per tenant in:\n%s", stdout)
	}
	if rows(stdout, "fabric:") != 1 || rows(stdout, "  quarantine ") != 1 || rows(stdout, "  credits ") != 1 {
		t.Errorf("want one fabric block with quarantine and credits lines in:\n%s", stdout)
	}
}

func TestListPrintsEveryRegisteredAnalysis(t *testing.T) {
	code, stdout, _ := cli("-list")
	if code != 0 {
		t.Fatalf("exit %d", code)
	}
	names := registry.Names()
	if len(names) == 0 {
		t.Fatal("registry is empty")
	}
	for _, name := range names {
		if rows(stdout, name+" ") != 1 {
			t.Errorf("-list does not print %q:\n%s", name, stdout)
		}
	}
}

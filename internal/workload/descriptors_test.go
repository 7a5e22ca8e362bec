package workload

import (
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"testing"

	"insitu/internal/core"
)

// TestDurableFilesOpenLateAndCloseWithTheRun: building a topology with
// a journal and a store creates none of journal.wal, index.log and
// frames.seg (set-up does not pay for them: each appears with its first
// write), and once Run has returned and the topology is closed no
// descriptor on any of them is left open.
func TestDurableFilesOpenLateAndCloseWithTheRun(t *testing.T) {
	cfg := loadExample(t, "store-serve")
	cfg.Store.Dir = t.TempDir()
	cfg.Recovery = &core.RecoveryConfig{Dir: t.TempDir(), Every: 2}
	journal := filepath.Join(cfg.Recovery.Dir, "journal.wal")
	index := filepath.Join(cfg.Store.Dir, "index.log")
	segment := filepath.Join(cfg.Store.Dir, "frames.seg")
	files := []string{journal, index, segment}

	b := buildExample(t, cfg)
	for _, path := range files {
		if _, err := os.Stat(path); !os.IsNotExist(err) {
			t.Errorf("built, never run: %s exists (stat err %v)", path, err)
		}
	}
	if _, err := b.Run(3, core.RunFresh); err != nil {
		t.Fatal(err)
	}
	if err := b.Close(); err != nil {
		t.Fatal(err)
	}
	for _, path := range files {
		if fi, err := os.Stat(path); err != nil || fi.Size() == 0 {
			t.Errorf("after the run: %s was not written (%v)", path, err)
		}
	}

	if runtime.GOOS != "linux" {
		t.Skip("the open-descriptor walk reads /proc/self/fd")
	}
	fds, err := os.ReadDir("/proc/self/fd")
	if err != nil {
		t.Fatal(err)
	}
	for _, fd := range fds {
		target, err := os.Readlink(filepath.Join("/proc/self/fd", fd.Name()))
		if err == nil && slices.Contains(files, target) {
			t.Errorf("descriptor %s is still open on %s", fd.Name(), target)
		}
	}
}

package profiling

import (
	"os"
	"path/filepath"
	"testing"
)

func TestStartWritesProfiles(t *testing.T) {
	dir := t.TempDir()
	cpu, mem := filepath.Join(dir, "cpu.out"), filepath.Join(dir, "mem.out")
	stop, err := Start(cpu, mem)
	if err != nil {
		t.Fatal(err)
	}
	x := 0
	for i := range 1 << 20 {
		x += i
	}
	_ = x
	if err := stop(); err != nil {
		t.Fatal(err)
	}
	for _, p := range []string{cpu, mem} {
		if fi, err := os.Stat(p); err != nil || fi.Size() == 0 {
			t.Errorf("%s: profile missing or empty (%v)", filepath.Base(p), err)
		}
	}
}

func TestStartDisabled(t *testing.T) {
	stop, err := Start("", "")
	if err != nil {
		t.Fatal(err)
	}
	if err := stop(); err != nil {
		t.Fatal(err)
	}
}

func TestStartBadPath(t *testing.T) {
	if _, err := Start(filepath.Join(t.TempDir(), "missing", "cpu.out"), ""); err == nil {
		t.Fatal("Start with an uncreatable CPU profile path succeeded")
	}
}

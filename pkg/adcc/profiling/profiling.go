// Package profiling wires the standard runtime/pprof CPU and heap
// profiles to command-line flags, so every command (and any embedder's
// binary) can be profiled without ad-hoc code:
//
//	stop, err := profiling.Start(*cpuProfile, *memProfile)
//	if err != nil { ... }
//	defer stop()
package profiling

import (
	"errors"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
)

// Start begins a CPU profile written to cpuPath and arranges for a heap
// profile to be written to memPath; an empty path disables that
// profile. The returned stop function ends the CPU profile and writes
// the heap profile (after a GC, so it reflects live memory); call it
// exactly once, before the process exits.
func Start(cpuPath, memPath string) (stop func() error, err error) {
	var cpu *os.File
	if cpuPath != "" {
		if cpu, err = os.Create(cpuPath); err != nil {
			return nil, fmt.Errorf("cpu profile: %w", err)
		}
		if err := pprof.StartCPUProfile(cpu); err != nil {
			cpu.Close()
			return nil, fmt.Errorf("cpu profile: %w", err)
		}
	}
	return func() error {
		var errs []error
		if cpu != nil {
			pprof.StopCPUProfile()
			if err := cpu.Close(); err != nil {
				errs = append(errs, fmt.Errorf("cpu profile: %w", err))
			}
		}
		if memPath != "" {
			errs = append(errs, writeHeap(memPath))
		}
		return errors.Join(errs...)
	}, nil
}

func writeHeap(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("heap profile: %w", err)
	}
	runtime.GC()
	if err := pprof.WriteHeapProfile(f); err != nil {
		f.Close()
		return fmt.Errorf("heap profile: %w", err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("heap profile: %w", err)
	}
	return nil
}

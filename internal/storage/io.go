package storage

import (
	"os"
	"sync/atomic"

	"repro/internal/fault"
)

// The fault hook. Every OS-level I/O call in this package funnels through
// the io* wrappers below, which consult a process-global *fault.IO. When no
// injector is installed (the production case) each wrapper costs one atomic
// pointer load and a nil check before the real syscall — no allocation, no
// lock, no indirection through an interface. When an injector is installed
// (chaos tests, CI smoke), the seeded fault.Plan decides per operation
// whether to fail, truncate, delay, or pass through, and transient faults
// are retried here with the policy's deterministic capped backoff before a
// query ever sees them.
//
// The sproutvet "iohook" analyzer enforces the funnel: raw os.* and
// (*os.File) I/O calls anywhere else in this package are build errors.

var activeIO atomic.Pointer[fault.IO]

// SetIO installs (or, with nil, removes) the package-global fault injector.
// Installation is atomic and may happen while files are open; subsequent
// operations on them are intercepted. Chaos tests install a seeded plan,
// run a workload, and must restore nil before returning.
func SetIO(io *fault.IO) { activeIO.Store(io) }

// withFaults runs op under the injector's schedule and retry policy.
// decide is consulted once per attempt so a transient rule burns out and
// the retry succeeds; hard faults surface immediately.
func withFaults(io *fault.IO, op fault.Op, path string, size int, fn func(short int) error) error {
	for attempt := 1; ; attempt++ {
		d := io.Plan.Decide(op, path, size)
		io.Pause(d.Delay)
		var err error
		if d.Err != nil {
			if d.Short >= 0 {
				// Torn page: persist the prefix for real, then fail, so the
				// on-disk state is genuinely corrupt for recovery paths.
				fn(d.Short)
			}
			err = d.Err
		} else {
			err = fn(-1)
		}
		if err == nil {
			return nil
		}
		if !fault.IsTransient(err) || !io.Retry.Enabled() || attempt >= io.Retry.MaxAttempts {
			return err
		}
		io.CountRetry()
		io.Pause(io.Retry.Backoff(io.Plan.Seed, attempt))
	}
}

//sproutvet:allow iohook io.go is the funnel: these wrappers are the only legal raw I/O sites

// ioCreate creates (truncating) a file through the fault plane.
func ioCreate(path string) (*os.File, error) {
	io := activeIO.Load()
	if io == nil {
		return os.OpenFile(path, os.O_RDWR|os.O_CREATE|os.O_TRUNC, 0o644)
	}
	var f *os.File
	err := withFaults(io, fault.OpCreate, path, 0, func(int) error {
		var e error
		f, e = os.OpenFile(path, os.O_RDWR|os.O_CREATE|os.O_TRUNC, 0o644)
		return e
	})
	return f, err
}

// ioOpen opens an existing file read-only through the fault plane.
func ioOpen(path string) (*os.File, error) {
	io := activeIO.Load()
	if io == nil {
		return os.Open(path)
	}
	var f *os.File
	err := withFaults(io, fault.OpOpen, path, 0, func(int) error {
		var e error
		f, e = os.Open(path)
		return e
	})
	return f, err
}

// ioWriteAt is (*os.File).WriteAt through the fault plane; short-write and
// torn-page faults persist a deterministic prefix before failing.
func ioWriteAt(f *os.File, path string, b []byte, off int64) error {
	io := activeIO.Load()
	if io == nil {
		_, err := f.WriteAt(b, off)
		return err
	}
	return withFaults(io, fault.OpWrite, path, len(b), func(short int) error {
		if short >= 0 {
			f.WriteAt(b[:short], off)
			return nil
		}
		_, err := f.WriteAt(b, off)
		return err
	})
}

// ioReadAt is (*os.File).ReadAt through the fault plane. The real read
// outcome (including io.EOF on a short tail read) passes through untouched
// so callers keep their existing EOF handling; only injected faults loop
// through the retry policy.
func ioReadAt(f *os.File, path string, b []byte, off int64) (int, error) {
	io := activeIO.Load()
	if io == nil {
		return f.ReadAt(b, off)
	}
	for attempt := 1; ; attempt++ {
		d := io.Plan.Decide(fault.OpRead, path, 0)
		io.Pause(d.Delay)
		if d.Err == nil {
			return f.ReadAt(b, off)
		}
		if !fault.IsTransient(d.Err) || !io.Retry.Enabled() || attempt >= io.Retry.MaxAttempts {
			return 0, d.Err
		}
		io.CountRetry()
		io.Pause(io.Retry.Backoff(io.Plan.Seed, attempt))
	}
}

// ioSync is (*os.File).Sync through the fault plane.
func ioSync(f *os.File, path string) error {
	io := activeIO.Load()
	if io == nil {
		return f.Sync()
	}
	return withFaults(io, fault.OpSync, path, 0, func(int) error {
		return f.Sync()
	})
}

// ioRemove is os.Remove through the fault plane. The unlink itself always
// happens: a caller's only recovery for a failed remove is to surface the
// error, and the chaos harness must be able to assert that no spill files
// survive a faulted run — so injected remove faults exercise the caller's
// error path without actually leaking the file.
func ioRemove(path string) error {
	io := activeIO.Load()
	if io == nil {
		return os.Remove(path)
	}
	realErr := os.Remove(path)
	for attempt := 1; ; attempt++ {
		d := io.Plan.Decide(fault.OpRemove, path, 0)
		io.Pause(d.Delay)
		if d.Err == nil {
			return realErr
		}
		if !fault.IsTransient(d.Err) || !io.Retry.Enabled() || attempt >= io.Retry.MaxAttempts {
			return d.Err
		}
		io.CountRetry()
		io.Pause(io.Retry.Backoff(io.Plan.Seed, attempt))
	}
}

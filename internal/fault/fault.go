// Package fault defines the simulator's typed error boundary: the sentinel
// errors every public edge wraps, the PanicError that isolation layers
// convert contained worker panics into, and the CellError that attaches the
// failing (accelerator, model, dataset) sweep cell to a failure.
//
// The contract (DESIGN.md §4g): interior hot-path kernels — tensor ops, the
// CSR builder, profile construction — keep their panics, because a shape or
// index violation there is a programming error and bounds-check-friendly
// code must not carry error returns through per-edge loops. Every layer that
// runs caller-supplied work on worker goroutines (the bench pool, the sweep
// suite, the gnn forward executor, the design-space explorer) recovers those
// panics at its boundary and converts them into a *PanicError, so one bad
// cell degrades one result instead of killing a multi-hour campaign.
package fault

import (
	"errors"
	"fmt"
	"runtime/debug"
)

// Sentinel errors wrapped by the public input edges. Match with errors.Is.
var (
	// ErrBadConfig marks rejected hardware or run configuration (bad PE
	// geometry, unknown MAC budget, unknown model/dataset selection).
	ErrBadConfig = errors.New("bad configuration")
	// ErrBadGraph marks malformed graph input: edge lists with negative or
	// implausibly large vertex ids, truncated or corrupt binary streams,
	// feature files with NaN/Inf values or ragged rows.
	ErrBadGraph = errors.New("bad graph input")
	// ErrBadShape marks tensor/model shape mismatches at public edges
	// (model dimension chains, feature matrices that disagree with the
	// graph or model).
	ErrBadShape = errors.New("bad shape")
)

// IsInput reports whether err stems from malformed user input (one of the
// sentinel errors above) rather than an internal failure. The CLIs use it to
// pick the exit code.
func IsInput(err error) bool {
	return errors.Is(err, ErrBadConfig) || errors.Is(err, ErrBadGraph) || errors.Is(err, ErrBadShape)
}

// PanicError is a worker panic captured at an isolation boundary. It carries
// the panic value and the stack of the panicking goroutine, so a contained
// kernel panic still diagnoses like an uncontained one.
type PanicError struct {
	Value any
	Stack []byte
}

// Error returns the panic value without the stack; use Stack for forensics.
func (e *PanicError) Error() string { return fmt.Sprintf("panic: %v", e.Value) }

// Unwrap exposes an error panic value to errors.Is/As, so a contained
// panic(err) still matches the sentinel err wraps.
func (e *PanicError) Unwrap() error {
	if err, ok := e.Value.(error); ok {
		return err
	}
	return nil
}

// Recovered converts a recover() value into a *PanicError, capturing the
// current stack. Call it directly inside the deferred recover handler so the
// stack still contains the panic site.
func Recovered(v any) *PanicError {
	return &PanicError{Value: v, Stack: debug.Stack()}
}

// Safely runs fn, converting a panic into a *PanicError return. It contains
// panics on the calling goroutine only; goroutines fn itself spawns must
// install their own recovery.
func Safely(fn func() error) (err error) {
	defer func() {
		if v := recover(); v != nil {
			err = Recovered(v)
		}
	}()
	return fn()
}

// AsPanic extracts a contained *PanicError from err's chain, reporting
// whether one is present. Serving and sweep layers use it to separate
// contained kernel panics (isolate the request, count the incident, answer
// 500) from ordinary failures — note a panic(err) whose value wraps an input
// sentinel still classifies as a panic, not as user input.
func AsPanic(err error) (*PanicError, bool) {
	var pe *PanicError
	if errors.As(err, &pe) {
		return pe, true
	}
	return nil, false
}

// CellError attaches the failing sweep cell to an error, so a failure deep
// inside a fanned-out campaign reports which (accelerator, model, dataset)
// combination produced it.
type CellError struct {
	Accelerator, Model, Dataset string
	Err                         error
}

func (e *CellError) Error() string {
	return fmt.Sprintf("cell (%s, %s, %s): %v", e.Accelerator, e.Model, e.Dataset, e.Err)
}

func (e *CellError) Unwrap() error { return e.Err }

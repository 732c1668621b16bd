package core

import (
	"context"
	"errors"
	"fmt"
)

// ErrCanceled reports a simulation that was aborted by its context before it
// finished. The returned error also wraps the context's cause, so
// errors.Is(err, context.Canceled) (or context.DeadlineExceeded) holds as
// well and callers can distinguish a client abandoning the request from a
// deadline firing.
//
// Cancellation is observed at layer boundaries of the simulated training
// iteration (in a pipeline, at each stage's layers of each micro-batch), so
// a canceled simulation stops within one layer's worth of host work, leaving
// no partially built Result behind.
var ErrCanceled = errors.New("core: simulation canceled")

// canceled wraps a done context into the error every aborted simulation
// returns: ErrCanceled carrying the context's cause.
func canceled(ctx context.Context) error {
	return fmt.Errorf("%w: %w", ErrCanceled, context.Cause(ctx))
}

// checkCtx is the per-layer cancellation probe of the hot loops: one atomic
// load when a context is attached, nothing otherwise.
func (e *runtime) checkCtx() error {
	if e.ctx != nil && e.ctx.Err() != nil {
		return canceled(e.ctx)
	}
	return nil
}

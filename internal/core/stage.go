// The pipeline error taxonomy: every failure in the
// compile→assemble→simulate→analyze→table pipeline is wrapped in a
// StageError naming the benchmark (when known) and the stage that
// failed, so callers can isolate a bad benchmark, render it as a
// DEGRADED row, or match a class of faults with errors.Is/As instead of
// string inspection.
package core

import (
	"fmt"
	"io"
	"os"

	"delinq/internal/cache"
	"delinq/internal/obj"
	"delinq/internal/trace"
)

// Stage names one phase of the pipeline.
type Stage string

const (
	// StageCompile is mini-C → assembly.
	StageCompile Stage = "compile"
	// StageAssemble is assembly → linked image (including image
	// validation).
	StageAssemble Stage = "assemble"
	// StageImage is reading or decoding a serialised image.
	StageImage Stage = "image"
	// StageDisasm is image → disassembled program.
	StageDisasm Stage = "disasm"
	// StageLower is rewriting an image for another machine description.
	StageLower Stage = "lower"
	// StagePattern is address-pattern analysis.
	StagePattern Stage = "pattern"
	// StageSimulate is VM execution with attached cache models.
	StageSimulate Stage = "simulate"
	// StageTrace is memory-trace decoding and replay.
	StageTrace Stage = "trace"
	// StageWorker is a failure of the worker executing a unit rather
	// than a stage-reported error: a recovered panic inside an
	// experiment worker, or — under the daemon's -isolate mode — a
	// sandboxed subprocess worker dying mid-request (SIGKILL, memory
	// ceiling, torn frame) or being killed as unresponsive.
	StageWorker Stage = "worker"
	// StageServe is a failure inside the analysis daemon's request
	// handling (a recovered handler panic, an exceeded request
	// deadline) rather than in a pipeline stage proper.
	StageServe Stage = "serve"
	// StageDifftest is the three-way differential oracle aborting a
	// batch (e.g. on an exceeded deadline) before all programs ran.
	StageDifftest Stage = "difftest"
)

// StageError is one pipeline failure with its provenance. Benchmark is
// empty when the failure is not tied to a benchmark (e.g. reading an
// image file from the CLI).
type StageError struct {
	Benchmark string
	Stage     Stage
	Err       error
}

// WrapStage wraps err as a *StageError; it returns nil if err is nil.
// An existing *StageError keeps its stage, so stages never double-wrap:
// one that names a benchmark passes through untouched, and an unnamed
// one takes benchmark.
func WrapStage(benchmark string, stage Stage, err error) error {
	if err == nil {
		return nil
	}
	if se, ok := err.(*StageError); ok {
		if se.Benchmark != "" || benchmark == "" {
			return se
		}
		named := *se
		named.Benchmark = benchmark
		return &named
	}
	return &StageError{Benchmark: benchmark, Stage: stage, Err: err}
}

func (e *StageError) Error() string {
	if e.Benchmark == "" {
		return fmt.Sprintf("%s: %v", e.Stage, e.Err)
	}
	return fmt.Sprintf("%s: %s: %v", e.Benchmark, e.Stage, e.Err)
}

// Unwrap exposes the underlying cause to errors.Is/As.
func (e *StageError) Unwrap() error { return e.Err }

// Is matches another *StageError treating its empty fields as
// wildcards, so errors.Is(err, &StageError{Stage: StageSimulate})
// matches any simulation failure.
func (e *StageError) Is(target error) bool {
	t, ok := target.(*StageError)
	if !ok {
		return false
	}
	return (t.Benchmark == "" || t.Benchmark == e.Benchmark) &&
		(t.Stage == "" || t.Stage == e.Stage)
}

// LoadImage is the hardened front door for serialised images: it reads,
// decodes, and validates, wrapping any failure (missing file, truncated
// or corrupt encoding, out-of-range entry point) as a StageError.
func LoadImage(path string) (*obj.Image, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, WrapStage("", StageImage, err)
	}
	img, err := obj.DecodeImage(b)
	if err != nil {
		return nil, WrapStage("", StageImage, err)
	}
	if err := img.Validate(); err != nil {
		return nil, WrapStage("", StageImage, err)
	}
	return img, nil
}

// ReplayTrace replays an encoded memory trace through fresh caches of
// the given geometries, wrapping decode and geometry failures as
// StageErrors.
func ReplayTrace(r io.Reader, geoms ...cache.Config) ([]trace.ReplayStats, error) {
	stats, err := trace.Replay(r, geoms...)
	if err != nil {
		return nil, WrapStage("", StageTrace, err)
	}
	return stats, nil
}

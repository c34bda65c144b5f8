package incremental

import (
	"context"

	"github.com/trustnet/trustnet/internal/graph"
	"github.com/trustnet/trustnet/internal/spectral"
)

// SLEMMaintainer measures the SLEM of a view's largest connected
// component once per epoch. It carries nothing across epochs: Lanczos
// from a seeded start needs about as few steps as one started from the
// previous epoch's eigenvector, so each Measure is a cold measurement,
// bit-identical to spectral.SLEMContext on the same component and to
// MeasureFull. Not safe for concurrent use.
type SLEMMaintainer struct {
	view *graph.MaskedView
	cfg  spectral.Config
}

// NewSLEMMaintainer returns a maintainer measuring with cfg (Resume is
// ignored).
func NewSLEMMaintainer(view *graph.MaskedView, cfg spectral.Config) *SLEMMaintainer {
	cfg.Resume = nil
	return &SLEMMaintainer{view: view, cfg: cfg}
}

// Measure computes the SLEM of the view's current largest connected
// component and returns it with the component's node count.
func (sm *SLEMMaintainer) Measure(ctx context.Context) (*spectral.Result, int, error) {
	comp, nodes := graph.LargestComponentView(sm.view)
	res, err := spectral.SLEMContext(ctx, comp, sm.cfg)
	if err != nil {
		return nil, 0, err
	}
	return res, len(nodes), nil
}

package spice

import (
	"math"

	"cnfetdk/internal/device"
)

// fetEvalNumeric computes the drain current and centrally-differenced
// terminal derivatives. It is the independent reference the analytic
// fetEval is validated against (see TestFETDerivativeParity); the solver
// itself uses fetEval, which shares one exp/tanh evaluation across the
// current and all three derivatives.
func fetEvalNumeric(p device.FETParams, vg, vd, vs float64) (id, dIg, dId, dIs float64) {
	id = fetCurrent(p, vg, vd, vs)
	const h = 1e-6
	dIg = (fetCurrent(p, vg+h, vd, vs) - fetCurrent(p, vg-h, vd, vs)) / (2 * h)
	dId = (fetCurrent(p, vg, vd+h, vs) - fetCurrent(p, vg, vd-h, vs)) / (2 * h)
	dIs = (fetCurrent(p, vg, vd, vs+h) - fetCurrent(p, vg, vd, vs-h)) / (2 * h)
	return id, dIg, dId, dIs
}

// fetCurrent returns the drain-to-source current of the smooth FET model.
func fetCurrent(p device.FETParams, vg, vd, vs float64) float64 {
	vgs := vg - vs
	vds := vd - vs
	if p.Polarity == device.PType {
		vgs = vs - vg
		vds = vs - vd
	}
	sign := 1.0
	if vds < 0 {
		// Symmetric device: treat the lower terminal as the source. The
		// effective gate drive is measured from the new source (the old
		// drain): vgs' = vg - vd = vgs - vds.
		vgs -= vds
		vds = -vds
		sign = -1
	}
	u := (vgs - p.Vt) / p.SS
	var g float64
	switch {
	case u > 40:
		g = 1
	case u < -40:
		g = 0
	default:
		g = 1 / (1 + math.Exp(-u))
	}
	i := sign * p.ISat * g * math.Tanh(vds/p.VSat)
	if p.Polarity == device.PType {
		i = -i
	}
	return i
}

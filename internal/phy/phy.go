// Package phy models radio propagation. The paper's NS-2 setup uses the
// Two-Ray Ground model ("which considers both the direct path and a ground
// reflection path") with omnidirectional antennas; transmission ranges of
// 50–250 m are obtained by tuning the receive threshold. This package
// reproduces that machinery: given a propagation model, a transmit power
// and a receive threshold, it answers "at what distance does reception
// stop", and conversely derives the threshold that yields a desired range.
package phy

import (
	"fmt"
	"math"
)

// SpeedOfLight in m/s.
const SpeedOfLight = 299792458.0

// Propagation computes received signal power at distance d.
type Propagation interface {
	// RxPower returns the received power in watts for transmit power pt
	// (watts) at distance d (metres). d must be > 0.
	RxPower(pt, d float64) float64
	// MaxRange returns the largest distance at which RxPower ≥ rxThresh.
	MaxRange(pt, rxThresh float64) float64
}

// FreeSpace is the Friis free-space model:
// Pr = Pt·Gt·Gr·λ² / ((4π·d)²·L).
type FreeSpace struct {
	Gt, Gr float64 // antenna gains (dimensionless)
	L      float64 // system loss ≥ 1
	Lambda float64 // wavelength, metres
}

// DefaultFreeSpace mirrors NS-2's defaults at 914 MHz: unity gains, unity
// loss.
func DefaultFreeSpace() FreeSpace {
	return FreeSpace{Gt: 1, Gr: 1, L: 1, Lambda: SpeedOfLight / 914e6}
}

// RxPower implements Propagation.
func (f FreeSpace) RxPower(pt, d float64) float64 {
	if d <= 0 {
		return math.Inf(1)
	}
	den := (4 * math.Pi * d) * (4 * math.Pi * d) * f.L
	return pt * f.Gt * f.Gr * f.Lambda * f.Lambda / den
}

// MaxRange implements Propagation.
func (f FreeSpace) MaxRange(pt, rxThresh float64) float64 {
	if rxThresh <= 0 {
		return math.Inf(1)
	}
	return f.Lambda / (4 * math.Pi) * math.Sqrt(pt*f.Gt*f.Gr/(f.L*rxThresh))
}

// TwoRayGround combines free-space attenuation near the transmitter with
// the fourth-power ground-reflection law beyond the crossover distance
// dc = 4π·ht·hr/λ:
//
//	d < dc:  Pr = Pt·Gt·Gr·λ² / ((4π·d)²·L)
//	d ≥ dc:  Pr = Pt·Gt·Gr·ht²·hr² / (d⁴·L)
type TwoRayGround struct {
	Gt, Gr float64 // antenna gains
	Ht, Hr float64 // antenna heights, metres
	L      float64 // system loss ≥ 1
	Lambda float64 // wavelength, metres
}

// DefaultTwoRayGround mirrors NS-2's wireless defaults: unity gains, 1.5 m
// antenna heights, unity system loss, 914 MHz carrier.
func DefaultTwoRayGround() TwoRayGround {
	return TwoRayGround{Gt: 1, Gr: 1, Ht: 1.5, Hr: 1.5, L: 1, Lambda: SpeedOfLight / 914e6}
}

// Crossover returns the distance where the model switches from free-space
// to fourth-power attenuation.
func (m TwoRayGround) Crossover() float64 {
	return 4 * math.Pi * m.Ht * m.Hr / m.Lambda
}

// RxPower implements Propagation.
func (m TwoRayGround) RxPower(pt, d float64) float64 {
	if d <= 0 {
		return math.Inf(1)
	}
	if d < m.Crossover() {
		den := (4 * math.Pi * d) * (4 * math.Pi * d) * m.L
		return pt * m.Gt * m.Gr * m.Lambda * m.Lambda / den
	}
	return pt * m.Gt * m.Gr * m.Ht * m.Ht * m.Hr * m.Hr / (d * d * d * d * m.L)
}

// MaxRange implements Propagation.
func (m TwoRayGround) MaxRange(pt, rxThresh float64) float64 {
	if rxThresh <= 0 {
		return math.Inf(1)
	}
	dc := m.Crossover()
	// Try the far regime first: d = (Pt·Gt·Gr·ht²·hr² / (L·thresh))^(1/4).
	far := math.Pow(pt*m.Gt*m.Gr*m.Ht*m.Ht*m.Hr*m.Hr/(m.L*rxThresh), 0.25)
	if far >= dc {
		return far
	}
	near := m.Lambda / (4 * math.Pi) * math.Sqrt(pt*m.Gt*m.Gr/(m.L*rxThresh))
	return math.Min(near, dc)
}

// ThresholdForRange returns the receive threshold that makes MaxRange equal
// to wantRange under model m with transmit power pt. This is how the
// paper's "transmission range 50–250 m" rows are realised.
func ThresholdForRange(m Propagation, pt, wantRange float64) (float64, error) {
	if wantRange <= 0 {
		return 0, fmt.Errorf("phy: range %v must be positive", wantRange)
	}
	thresh := m.RxPower(pt, wantRange)
	if math.IsInf(thresh, 1) || thresh <= 0 {
		return 0, fmt.Errorf("phy: cannot achieve range %v", wantRange)
	}
	return thresh, nil
}

// NS2DefaultTxPower is NS-2's default wireless transmit power in watts
// (0.28183815 W, which with the default thresholds yields a 250 m range
// under TwoRayGround).
const NS2DefaultTxPower = 0.28183815

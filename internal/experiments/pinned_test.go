package experiments

import "testing"

// pinnedOptions is the scale of the pinned renderings: two replications
// at 5% load from seed 1.
var pinnedOptions = Options{Runs: 2, MsgScale: 0.05, BaseSeed: 1}

// pinnedTable3 and pinnedFig4 are what the tab3 and fig4 experiments
// render at pinnedOptions. They pin the whole path
// from scenario lowering through the seed sweep to the 90% fold and the
// table layout; a change that moves them changes what glrexp prints.
const pinnedTable3 = `Table 3: delivery ratio with/without custody transfer (45 msgs, 50 m, 1200 s)
Scenario                  Measured      Paper    
---------------------------------------------------
without custody transfer  23.3%±63.1%   84.7%±1% 
with custody transfer     95.6%±28.1%   97.9%±1% 
Paper: custody transfer lifts the delivery ratio (84.7% -> 97.9%).
`

const pinnedFig4 = `        Figure 4: latency vs messages in transit (50 m radius)
  167.35 |               *                                            
         |                                                            
         |                             *                              
         |                                                            
         |                                            *              *
         |*                                                           
         |                                                            
         |                                                            
         |                                                            
  78.751 |               +                            +               
         |+                            +                             +
         |                                                            
         |                                                            
         |                                                            
         |                                                            
         |                                                            
         |                                                            
       0 |                                                            
         +------------------------------------------------------------
         20                                                                  99
                         messages in transit
          * GLR
          + Epidemic
Messages  GLR lat (s)     Epidemic lat (s)  GLR ratio  Epi ratio
------------------------------------------------------------------
20        115.37±54.10    70.59±140.44      0.975      1.000    
40        167.35±267.83   77.80±124.46      0.975      1.000    
59        146.29±187.84   73.15±107.96      0.992      1.000    
79        132.87±113.06   76.24±147.47      0.994      1.000    
99        132.63±102.55   73.01±128.55      0.980      1.000    
Paper: epidemic latency grows with messages in transit due to contention;
GLR stays flatter and wins at high load.
`

// checkPinned fails with the fresh rendering when it differs from want.
func checkPinned(t *testing.T, name, got, want string) {
	t.Helper()
	if got != want {
		t.Errorf("%s rendering moved; fresh rendering:\n%s", name, got)
	}
}

// TestTable3PinnedRendering pins a GLR run with a GLR configuration
// (custody off and on).
func TestTable3PinnedRendering(t *testing.T) {
	checkPinned(t, "Table 3", runExp(t, "tab3", pinnedOptions).Render(), pinnedTable3)
}

// TestFig4PinnedRendering pins GLR and epidemic replicated side by side.
func TestFig4PinnedRendering(t *testing.T) {
	if testing.Short() {
		t.Skip("ten replication sweeps; skipped in -short")
	}
	checkPinned(t, "Figure 4", runExp(t, "fig4", pinnedOptions).Render(), pinnedFig4)
}

package a

import "fix/internal/oracle"

// Used calls the test-support package from production code.
func Used() { oracle.Reference() }

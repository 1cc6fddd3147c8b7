package oracle

// Reference is a reference implementation for tests.
func Reference() {}

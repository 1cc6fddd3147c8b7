package a

// OnlyBench is used by the bench module alone.
func OnlyBench() {}

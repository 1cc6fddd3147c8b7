package a

// Kept waits for its caller.
func Kept() {}

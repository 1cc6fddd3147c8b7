package a

// Used is called by the command.
func Used() {}

// Unused is called by a test only.
func Unused() {}

package a

// T has methods that only interfaces call.
type T struct{}

// New returns a T.
func New() T { return T{} }

// Name satisfies a named interface of the command.
func (T) Name() string { return "t" }

// String satisfies fmt.Stringer.
func (T) String() string { return "t" }

// Render satisfies an inline type-parameter constraint.
func (T) Render() string { return "t" }

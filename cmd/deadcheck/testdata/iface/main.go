package main

import (
	"fmt"

	"fix/internal/a"
)

type namer interface{ Name() string }

func render[T interface{ Render() string }](v T) string { return v.Render() }

func main() {
	var n namer = a.New()
	fmt.Println(n.Name(), a.New(), render(a.New()))
}

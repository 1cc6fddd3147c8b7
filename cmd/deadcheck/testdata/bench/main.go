package main

func main() {}

module pde/benchmark

go 1.24

require pde v0.0.0

replace pde => ../

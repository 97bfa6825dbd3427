module spthreads/benchmark

go 1.24

require spthreads v0.0.0

replace spthreads => ../

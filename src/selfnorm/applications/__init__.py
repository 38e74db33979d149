"""Applications of the bounds: the Student t statistic, least-squares
regression, and the Euclidean travelling salesman problem."""

"""Point-cloud classifier training, point-insertion backdoor attacks, and
unsupervised backdoor detection via trigger reverse-engineering."""
